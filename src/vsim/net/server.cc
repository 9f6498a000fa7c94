#include "vsim/net/server.h"

#include <sys/socket.h>

#include <cerrno>
#include <string>
#include <utility>

#include "vsim/net/reactor.h"
#include "vsim/obs/profiler.h"

namespace vsim::net {

StatsResponse BuildStatsResponse(QueryService* service,
                                 const StatsRequest& request) {
  StatsResponse stats;
  stats.metrics_text = service->metrics().TextExposition();
  stats.traces = service->flight_recorder().Snapshot(request.max_traces,
                                                     request.slow_only);
  if (request.include_spans) {
    stats.span_trees = service->span_ring().Snapshot(kMaxWireSpanTrees);
  }
  switch (request.profile_op) {
    case kProfileArm:
      obs::Profiler::Instance().Arm(static_cast<int>(request.profile_hz));
      break;
    case kProfileDisarm:
      obs::Profiler::Instance().Disarm();
      break;
    case kProfileCollect:
      stats.profile_text = obs::Profiler::Instance().CollapsedStacks();
      break;
    default:
      break;
  }
  return stats;
}

ServerInfo MakeServerInfo(const DbSnapshot& snapshot) {
  const ExtractionOptions& opts = snapshot.db().options();
  ServerInfo info;
  info.generation = snapshot.generation();
  info.object_count = snapshot.db().size();
  info.num_covers = opts.num_covers;
  info.cover_resolution = opts.cover_resolution;
  info.histogram_cells = opts.histogram_cells;
  info.histogram_resolution = opts.histogram_resolution;
  info.extract_histograms = opts.extract_histograms;
  info.anisotropic_fit = opts.anisotropic_fit;
  info.cover_search = opts.cover_search;
  info.feature_flags = kFeatureStats;
  return info;
}

const char* TransportName(Transport transport) {
  switch (transport) {
    case Transport::kThreads:
      return "threads";
    case Transport::kEpoll:
      return "epoll";
  }
  return "unknown";
}

StatusOr<Transport> ParseTransport(const std::string& name) {
  if (name == "threads") return Transport::kThreads;
  if (name == "epoll") return Transport::kEpoll;
  return Status::InvalidArgument("unknown transport '" + name +
                                 "' (expected 'threads' or 'epoll')");
}

Server::Server(QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  stats_collector_id_ = service_->metrics().RegisterCollector(
      [this](std::vector<obs::MetricSample>* out) {
        auto add = [out](const char* name, const char* help, double value) {
          obs::MetricSample s;
          s.name = name;
          s.help = help;
          s.value = value;
          out->push_back(std::move(s));
        };
        auto count = [](const std::atomic<uint64_t>& value) {
          return static_cast<double>(
              value.load(std::memory_order_relaxed));
        };
        add("vsim_net_connections_accepted_total",
            "TCP connections accepted", count(counters_.connections_accepted));
        add("vsim_net_connections_rejected_total",
            "TCP connections rejected over the connection limit",
            count(counters_.connections_rejected));
        add("vsim_net_requests_received_total",
            "Query request frames read off the wire",
            count(counters_.requests_received));
        add("vsim_net_responses_sent_total",
            "Completions written to the wire (incl. status frames)",
            count(counters_.responses_sent));
        add("vsim_net_protocol_errors_total",
            "Malformed frames or payloads received from peers",
            count(counters_.protocol_errors));
        {
          obs::MetricSample s;
          s.name = "vsim_net_open_connections";
          s.help = "Connections currently accepted and not yet closed";
          s.type = obs::MetricSample::Type::kGauge;
          s.value = count(counters_.open_connections);
          out->push_back(std::move(s));
        }
        add("vsim_net_reactor_loop_iterations_total",
            "epoll_wait returns across all reactor event loops",
            count(counters_.reactor_loop_iterations));
        add("vsim_net_coalesced_writes_total",
            "Reactor write flushes that merged two or more completed "
            "responses into one send",
            count(counters_.coalesced_writes));
        add("vsim_net_read_stall_seconds_total",
            "Cumulative time reactor connections spent with reads paused "
            "by pipeline backpressure",
            count(counters_.read_stall_micros) * 1e-6);
      });
}

Server::~Server() {
  Stop();
  service_->metrics().UnregisterCollector(stats_collector_id_);
}

Status Server::Start() {
  {
    MutexLock lock(&mu_);
    if (started_) {
      return Status::FailedPrecondition("server already started");
    }
    started_ = true;
  }
  StatusOr<ScopedFd> listen = ListenTcp(options_.host, options_.port);
  VSIM_RETURN_NOT_OK(listen.status());
  listen_fd_ = std::move(listen).value();
  StatusOr<int> port = LocalPort(listen_fd_.get());
  VSIM_RETURN_NOT_OK(port.status());
  port_.store(port.value(), std::memory_order_release);
  if (options_.transport == Transport::kEpoll) {
    reactor_ =
        std::make_unique<EpollReactor>(service_, options_, &counters_);
    Status started = reactor_->Start(std::move(listen_fd_));
    if (!started.ok()) reactor_.reset();
    return started;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  {
    MutexLock lock(&mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  if (reactor_ != nullptr) {
    reactor_->Stop();
    return;
  }
  // Unblock accept(2); the acceptor sees the error + stopping_ and
  // exits without touching the connection list again.
  listen_fd_.ShutdownBoth();
  if (acceptor_.joinable()) acceptor_.join();

  // Graceful drain: stop *reading* from every connection (readers
  // unblock and mark themselves done) while leaving the write side open
  // so writers can flush every in-flight response.
  MutexLock lock(&mu_);
  for (auto& conn : connections_) conn->fd.ShutdownRead();
  for (auto& conn : connections_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
  connections_.clear();
  listen_fd_.Reset();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  s.connections_rejected =
      counters_.connections_rejected.load(std::memory_order_relaxed);
  s.requests_received =
      counters_.requests_received.load(std::memory_order_relaxed);
  s.responses_sent =
      counters_.responses_sent.load(std::memory_order_relaxed);
  s.protocol_errors =
      counters_.protocol_errors.load(std::memory_order_relaxed);
  s.open_connections =
      counters_.open_connections.load(std::memory_order_relaxed);
  s.reactor_loop_iterations =
      counters_.reactor_loop_iterations.load(std::memory_order_relaxed);
  s.coalesced_writes =
      counters_.coalesced_writes.load(std::memory_order_relaxed);
  s.read_stall_seconds =
      static_cast<double>(
          counters_.read_stall_micros.load(std::memory_order_relaxed)) *
      1e-6;
  return s;
}

size_t Server::ReapConnectionsLocked() {
  size_t live = 0;
  auto it = connections_.begin();
  while (it != connections_.end()) {
    Connection* conn = it->get();
    if (conn->finished.load(std::memory_order_acquire)) {
      if (conn->reader.joinable()) conn->reader.join();
      if (conn->writer.joinable()) conn->writer.join();
      it = connections_.erase(it);
    } else {
      ++live;
      ++it;
    }
  }
  return live;
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      // Transient accept failures (e.g. the peer resetting before the
      // handshake completes) must not kill the serving loop.
      continue;
    }
    ScopedFd client(fd);
    if (stopping_.load(std::memory_order_acquire)) break;

    MutexLock lock(&mu_);
    const size_t live = ReapConnectionsLocked();
    if (live >= static_cast<size_t>(options_.max_connections)) {
      // Over the limit: tell the peer why before closing, mirroring the
      // service's own admission-control contract.
      counters_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      std::string frame;
      AppendStatusFrame(
          0,
          Status::Unavailable(
              "connection limit reached (" +
              std::to_string(options_.max_connections) + " active)"),
          &frame);
      (void)WriteAll(client.get(), frame.data(), frame.size());
      continue;  // ScopedFd closes the socket
    }
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters_.open_connections.fetch_add(1, std::memory_order_relaxed);
    SetNoDelay(client.get());
    if (options_.read_timeout_seconds > 0) {
      (void)SetReadTimeout(client.get(), options_.read_timeout_seconds);
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = std::move(client);
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    raw->reader = std::thread([this, raw] { ReaderLoop(raw); });
    raw->writer = std::thread([this, raw] { WriterLoop(raw); });
  }
}

void Server::EnqueueLocked(Connection* conn, Connection::Pending pending) {
  MutexLock lock(&conn->mu);
  // Backpressure: the reader (sole producer) waits for window space; the
  // writer pops and signals. A stopping server drains via the writer, so
  // this wait always makes progress.
  while (conn->queue.size() >= options_.max_pipeline) {
    conn->cv.Wait(&conn->mu);
  }
  conn->queue.push_back(std::move(pending));
  conn->cv.NotifyAll();
}

void Server::MarkLoopExited(Connection* conn, std::atomic<bool>* mine,
                            const std::atomic<bool>* other) {
  mine->store(true, std::memory_order_release);
  if (other->load(std::memory_order_acquire)) {
    // Both reader and writer can observe the other exited; the exchange
    // makes exactly one of them retire the connection from the gauge.
    if (!conn->finished.exchange(true, std::memory_order_acq_rel)) {
      counters_.open_connections.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void Server::ReaderLoop(Connection* conn) {
  while (true) {
    FrameHeader header;
    std::string payload;
    bool clean_eof = false;
    Status read_status =
        ReadFrame(conn->fd.get(), &header, &payload, &clean_eof);
    if (read_status.ok() && clean_eof) break;  // peer finished cleanly
    if (!read_status.ok()) {
      // Read errors during shutdown (or after the writer shut the
      // socket down on a write failure) are expected teardown, not
      // peer misbehavior.
      if (!stopping_.load(std::memory_order_acquire) &&
          read_status.code() != StatusCode::kIOError) {
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        Connection::Pending fatal;
        fatal.request_id = 0;
        fatal.ready = read_status;
        fatal.close_after = true;
        EnqueueLocked(conn, std::move(fatal));
      }
      break;
    }

    Connection::Pending pending;
    pending.request_id = header.request_id;
    switch (header.type) {
      case FrameType::kInfoRequest: {
        pending.has_info = true;
        pending.info = MakeServerInfo(*service_->snapshot());
        break;
      }
      case FrameType::kStatsRequest: {
        StatsRequest stats_request;
        Status decoded = DecodeStatsRequestPayload(
            reinterpret_cast<const uint8_t*>(payload.data()),
            payload.size(), &stats_request);
        if (!decoded.ok()) {
          counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          pending.ready = decoded;
          break;
        }
        // Exposition and snapshots run on the reader thread -- they
        // allocate, the recording hot path does not.
        pending.has_stats = true;
        pending.stats = BuildStatsResponse(service_, stats_request);
        break;
      }
      case FrameType::kRequest: {
        counters_.requests_received.fetch_add(1, std::memory_order_relaxed);
        pending.read_ns = obs::MonotonicNowNs();
        ServiceRequest request;
        Status decoded = DecodeRequestPayload(
            reinterpret_cast<const uint8_t*>(payload.data()),
            payload.size(), &request);
        if (!decoded.ok()) {
          // Framing is intact, so this poisons only the one request:
          // answer it with the decode error and keep the connection.
          counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          pending.ready = decoded;
          break;
        }
        // Adopt the wire trace context, or mint one here so the net-
        // and service-layer span trees of this request share an id.
        if (!request.trace.valid()) request.trace = obs::MintTraceContext();
        pending.trace = request.trace;
        StatusOr<std::future<StatusOr<ServiceResponse>>> submitted =
            service_->Submit(std::move(request));
        if (submitted.ok()) {
          pending.future = std::move(submitted).value();
        } else {
          pending.ready = submitted.status();  // admission rejection
        }
        pending.decode_ns = obs::MonotonicNowNs();
        break;
      }
      default: {
        // kResponse/kStatus/kInfoResponse are server->client only; a
        // peer sending one no longer speaks the protocol we expect.
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        pending.ready = Status::InvalidArgument(
            "unexpected client frame type " +
            std::to_string(static_cast<int>(header.type)));
        pending.close_after = true;
        break;
      }
    }
    const bool fatal = pending.close_after;
    EnqueueLocked(conn, std::move(pending));
    if (fatal) break;
  }

  {
    MutexLock lock(&conn->mu);
    conn->reader_done = true;
    conn->cv.NotifyAll();
  }
  MarkLoopExited(conn, &conn->reader_exited, &conn->writer_exited);
}

void Server::WriterLoop(Connection* conn) {
  bool close = false;
  while (!close) {
    Connection::Pending pending;
    {
      MutexLock lock(&conn->mu);
      while (conn->queue.empty() && !conn->reader_done) {
        conn->cv.Wait(&conn->mu);
      }
      if (conn->queue.empty()) break;  // reader done + drained
      pending = std::move(conn->queue.front());
      conn->queue.pop_front();
      conn->cv.NotifyAll();  // window space for the reader
    }

    std::string frames;
    uint64_t encode_start_ns = 0;
    uint64_t encode_end_ns = 0;
    if (pending.has_info) {
      AppendInfoResponseFrame(pending.request_id, pending.info, &frames);
    } else if (pending.has_stats) {
      AppendStatsResponseFrame(pending.request_id, pending.stats, &frames);
    } else if (pending.future.valid()) {
      // Blocks until the service completes the request -- this is what
      // makes Stop() a *drain*: the writer refuses to exit before every
      // submitted request has its answer on the wire (or the socket is
      // dead). Service errors (kDeadlineExceeded, validation,
      // kOutOfRange after a shrinking swap) become kStatus frames.
      StatusOr<ServiceResponse> result = pending.future.get();
      encode_start_ns = obs::MonotonicNowNs();
      if (result.ok()) {
        AppendResponseFrames(pending.request_id, result.value(), &frames,
                             options_.results_per_frame);
      } else {
        AppendStatusFrame(pending.request_id, result.status(), &frames);
      }
      encode_end_ns = obs::MonotonicNowNs();
    } else {
      AppendStatusFrame(pending.request_id, pending.ready, &frames);
    }
    close = pending.close_after;
    const uint64_t flush_start_ns = obs::MonotonicNowNs();
    if (!WriteAll(conn->fd.get(), frames.data(), frames.size()).ok()) {
      close = true;  // peer gone; remaining completions have no reader
    } else {
      counters_.responses_sent.fetch_add(1, std::memory_order_relaxed);
    }
    if (pending.trace.valid() && service_->spans_enabled()) {
      // Publish the net-layer span tree for this query request: accept,
      // decode (reader-side timestamps), encode, flush. Keyed by the
      // same trace id the service-layer tree carries.
      const uint64_t flush_end_ns = obs::MonotonicNowNs();
      obs::SpanArena arena(pending.trace, pending.request_id);
      const uint64_t parent = pending.trace.parent_span_id;
      arena.Add(obs::SpanName::kAccept, parent, pending.read_ns,
                pending.read_ns);
      arena.Add(obs::SpanName::kDecode, parent, pending.read_ns,
                pending.decode_ns);
      if (encode_end_ns != 0) {
        arena.Add(obs::SpanName::kEncode, parent, encode_start_ns,
                  encode_end_ns);
      }
      arena.Add(obs::SpanName::kFlush, parent, flush_start_ns, flush_end_ns);
      obs::SpanTreeRecord record;
      obs::RenderSpanTree(arena, 0, &record);
      service_->span_ring().Record(record);
    }
  }

  // Wake the reader out of recv (it may still be mid-read on a
  // connection the writer decided to close) and out of the backpressure
  // wait, then drop any undeliverable completions. Destroying a pending
  // future does not cancel execution -- the service still runs the
  // request to completion; only the result delivery is abandoned.
  conn->fd.ShutdownBoth();
  {
    MutexLock lock(&conn->mu);
    while (!conn->reader_done) {
      conn->queue.clear();
      conn->cv.NotifyAll();
      conn->cv.Wait(&conn->mu);
    }
    conn->queue.clear();
  }
  MarkLoopExited(conn, &conn->writer_exited, &conn->reader_exited);
}

}  // namespace vsim::net
