#include "vsim/net/socket_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

namespace vsim::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

void ScopedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ScopedFd::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ScopedFd::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

Status WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadFull(int fd, void* data, size_t size, bool* clean_eof) {
  *clean_eof = false;
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::IOError("connection closed mid-frame (" +
                             std::to_string(got) + "/" +
                             std::to_string(size) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadFrame(int fd, FrameHeader* header, std::string* payload,
                 bool* clean_eof, size_t max_payload_bytes) {
  uint8_t raw[kFrameHeaderBytes];
  VSIM_RETURN_NOT_OK(ReadFull(fd, raw, sizeof(raw), clean_eof));
  if (*clean_eof) return Status::OK();
  VSIM_RETURN_NOT_OK(DecodeFrameHeader(raw, sizeof(raw), header));
  if (header->payload_bytes > max_payload_bytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(header->payload_bytes) +
        " bytes exceeds this endpoint's limit of " +
        std::to_string(max_payload_bytes));
  }
  payload->resize(header->payload_bytes);
  if (header->payload_bytes > 0) {
    bool eof_in_payload = false;
    VSIM_RETURN_NOT_OK(
        ReadFull(fd, payload->data(), payload->size(), &eof_in_payload));
    if (eof_in_payload) {
      return Status::IOError("connection closed before the frame payload");
    }
  }
  return Status::OK();
}

StatusOr<ScopedFd> ListenTcp(const std::string& host, int port,
                             int backlog) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("invalid IPv4 address '" + host + "'");
  }
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");
  return fd;
}

StatusOr<ScopedFd> ConnectTcp(const std::string& host, int port) {
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("port must be in [1, 65535]");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("invalid IPv4 address '" + host + "'");
  }
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect " + host + ":" + std::to_string(port));
  }
  SetNoDelay(fd.get());
  return fd;
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

StatusOr<int> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::OK();
}

Status SetReadTimeout(int fd, double seconds) {
  if (seconds < 0.0) {
    return Status::InvalidArgument("read timeout must be non-negative");
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

}  // namespace vsim::net
