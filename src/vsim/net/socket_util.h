// Thin portable-POSIX socket helpers shared by net::Server and
// net::Client: RAII fd ownership, full-buffer read/write loops that
// retry EINTR, TCP listen/connect with IPv4 dotted-quad addresses, and
// the one shared frame-read loop both sides use (header validation via
// protocol.h, payload bounded before allocation).
//
// These helpers serve both transports: the thread-per-connection path
// uses blocking I/O on dedicated threads (graceful shutdown rides on
// shutdown(2) unblocking the blocked reads), while the epoll reactor
// (src/vsim/net/reactor.h) flips fds non-blocking via SetNonBlocking
// and does its own readiness-driven recv/send loops.
//
// Thread-safety: free functions are stateless. A ScopedFd may be used
// from several threads only the way the server does: concurrent
// recv/send on a connected socket fd is allowed by POSIX, but Close()
// must not race either (the server shuts the fd down first, joins both
// threads, then closes).
#ifndef VSIM_NET_SOCKET_UTIL_H_
#define VSIM_NET_SOCKET_UTIL_H_

#include <cstddef>
#include <string>
#include <utility>

#include "vsim/common/status.h"
#include "vsim/net/protocol.h"

namespace vsim::net {

// Owns a file descriptor; closes on destruction. Movable, not copyable.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { Reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.Release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() { return std::exchange(fd_, -1); }
  void Reset();

  // shutdown(2) both directions: unblocks any thread blocked in
  // recv/send on this fd (the graceful-stop lever; the fd stays open
  // until Reset so no descriptor reuse race).
  void ShutdownBoth();

  // shutdown(2) the read side only: blocked reads see EOF while the
  // write side stays usable -- the graceful-drain half (the server's
  // writers keep flushing in-flight responses after Stop()).
  void ShutdownRead();

 private:
  int fd_ = -1;
};

// Writes all `size` bytes, retrying EINTR and partial writes.
Status WriteAll(int fd, const void* data, size_t size);

// Reads exactly `size` bytes. EOF before the first byte sets
// *clean_eof = true and returns OK with nothing read (the caller's
// loop-exit signal); EOF mid-buffer is a kIOError.
Status ReadFull(int fd, void* data, size_t size, bool* clean_eof);

// Reads one complete frame: header (validated) + payload (bounded by
// max_payload_bytes before allocation). Clean EOF at a frame boundary
// sets *clean_eof and returns OK with an untouched header.
Status ReadFrame(int fd, FrameHeader* header, std::string* payload,
                 bool* clean_eof,
                 size_t max_payload_bytes = kMaxFramePayloadBytes);

// IPv4 listen socket on host:port (dotted quad; port 0 = ephemeral),
// SO_REUSEADDR set, backlog applied.
StatusOr<ScopedFd> ListenTcp(const std::string& host, int port,
                             int backlog = 64);

// Blocking IPv4 connect; TCP_NODELAY set via SetNoDelay.
StatusOr<ScopedFd> ConnectTcp(const std::string& host, int port);

// Sets TCP_NODELAY. The protocol pipelines small frames, so Nagle's
// algorithm only adds latency -- and meets the peer's delayed ACK in a
// ~40 ms stall per response. Both ends of every connection set it: the
// client on connect, both server transports on accept. Best effort: a
// socket that refuses the option still works, only slower.
void SetNoDelay(int fd);

// The locally bound port of a socket (resolves port 0 after bind).
StatusOr<int> LocalPort(int fd);

// Sets SO_RCVTIMEO; a blocked read then fails after `seconds` instead
// of pinning its thread forever on a stalled peer. 0 clears the limit.
Status SetReadTimeout(int fd, double seconds);

// Puts the fd into O_NONBLOCK mode (the reactor transport's accept,
// recv and send paths all require it; blocking transports never call
// this).
Status SetNonBlocking(int fd);

}  // namespace vsim::net

#endif  // VSIM_NET_SOCKET_UTIL_H_
