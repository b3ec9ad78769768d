#include "net/remote_executor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/frame_io.h"

namespace silkroute::net {

namespace {

/// Converts a wire trace block back into obs spans and stitches them under
/// `attempt` (the client-side attempt span), re-based at `offset_ns` on the
/// client tracer's clock.
void StitchServerSpans(obs::SpanHandle* attempt, obs::Tracer* tracer,
                       std::vector<WireSpan> wire_spans, uint64_t offset_ns) {
  std::vector<obs::Span> spans;
  spans.reserve(wire_spans.size());
  for (WireSpan& ws : wire_spans) {
    obs::Span span;
    span.id = std::move(ws.id);
    span.parent_id = std::move(ws.parent_id);
    span.name = std::move(ws.name);
    span.start_ns = ws.start_ns;
    span.end_ns = ws.end_ns;
    span.annotations.reserve(ws.annotations.size());
    for (auto& kv : ws.annotations) {
      span.annotations.push_back(
          obs::Annotation{std::move(kv.first), std::move(kv.second)});
    }
    spans.push_back(std::move(span));
  }
  tracer->StitchSubtree(attempt, std::move(spans), offset_ns);
}

}  // namespace

RemoteSqlExecutor::RemoteSqlExecutor(RemoteExecutorOptions options)
    : options_(std::move(options)), jitter_(options_.jitter_seed) {
  if (options_.metrics != nullptr) {
    auto labeled = [&](const char* base) {
      return options_.metrics->counter(
          obs::LabeledName(base, {{"backend", options_.backend}}));
    };
    m_reconnects_ = labeled("silkroute_net_reconnects_total");
    m_decode_errors_ = labeled("silkroute_net_decode_errors_total");
    m_frames_in_ = labeled("silkroute_net_frames_in_total");
    m_frames_out_ = labeled("silkroute_net_frames_out_total");
    m_pool_pruned_ = labeled("silkroute_net_pool_pruned_total");
  }
}

RemoteSqlExecutor::~RemoteSqlExecutor() { Shutdown(); }

void RemoteSqlExecutor::Shutdown() {
  shutdown_.Cancel();
  std::lock_guard<std::mutex> lock(pool_mu_);
  idle_.clear();
}

size_t RemoteSqlExecutor::pooled_connections() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return idle_.size();
}

void RemoteSqlExecutor::PruneIdleLocked(
    std::chrono::steady_clock::time_point now) {
  if (options_.pool_idle_ttl_ms <= 0) return;
  auto ttl = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(options_.pool_idle_ttl_ms));
  size_t before = idle_.size();
  // Connections park in LIFO order, so expired entries cluster at the
  // front (oldest parked first).
  auto it = idle_.begin();
  while (it != idle_.end() && now - it->parked_at > ttl) ++it;
  idle_.erase(idle_.begin(), it);
  size_t pruned = before - idle_.size();
  if (pruned > 0) {
    pool_pruned_.fetch_add(pruned);
    if (m_pool_pruned_ != nullptr) m_pool_pruned_->Add(pruned);
  }
}

Result<Socket> RemoteSqlExecutor::AcquireConnection(const IoOptions& io,
                                                    bool* from_pool) {
  *from_pool = false;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    PruneIdleLocked(std::chrono::steady_clock::now());
    if (!idle_.empty()) {
      Socket socket = std::move(idle_.back().socket);
      idle_.pop_back();
      *from_pool = true;
      return socket;
    }
  }
  return DialWithBackoff(io);
}

Result<Socket> RemoteSqlExecutor::DialWithBackoff(const IoOptions& io) {
  // Dial with exponential backoff + jitter; every wait is bounded by the
  // call deadline and interruptible through both cancel tokens.
  double backoff_ms = options_.backoff_initial_ms;
  Status last = Status::Unavailable("no dial attempt made");
  for (int attempt = 0; attempt < std::max(1, options_.connect_attempts);
       ++attempt) {
    if (shutdown_.cancelled() ||
        (options_.cancel != nullptr && options_.cancel->cancelled()) ||
        (io.cancel3 != nullptr && io.cancel3->cancelled())) {
      return Status::Unavailable("remote executor cancelled while dialing");
    }
    if (io.has_deadline && std::chrono::steady_clock::now() >= io.deadline) {
      return Status::Timeout("deadline exceeded while dialing " +
                             options_.host);
    }
    if (attempt > 0) {
      reconnects_.fetch_add(1);
      if (m_reconnects_ != nullptr) m_reconnects_->Add(1);
      // Full jitter: sleep uniform in [0, backoff], through the shutdown
      // token so Shutdown() cuts the wait short.
      double sleep_ms = jitter_.NextDouble() * backoff_ms;
      if (io.has_deadline) {
        double remaining_ms =
            std::chrono::duration<double, std::milli>(
                io.deadline - std::chrono::steady_clock::now())
                .count();
        sleep_ms = std::min(sleep_ms, std::max(0.0, remaining_ms));
      }
      if (!shutdown_.SleepFor(sleep_ms)) {
        return Status::Unavailable("remote executor cancelled while dialing");
      }
      backoff_ms = std::min(backoff_ms * options_.backoff_multiplier,
                            options_.backoff_max_ms);
    }
    IoOptions dial_io = io;
    if (options_.dial_timeout_ms > 0) {
      auto dial_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(
                  options_.dial_timeout_ms));
      if (!dial_io.has_deadline || dial_deadline < dial_io.deadline) {
        dial_io.has_deadline = true;
        dial_io.deadline = dial_deadline;
      }
    }
    auto socket = Dial(options_.host, options_.port, dial_io);
    if (socket.ok()) return std::move(*socket);
    last = socket.status();
  }
  return Status::Unavailable("dialing " + options_.host + " failed after " +
                             std::to_string(options_.connect_attempts) +
                             " attempts: " + last.message());
}

void RemoteSqlExecutor::ReleaseConnection(Socket socket) {
  if (shutdown_.cancelled()) return;
  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(pool_mu_);
  PruneIdleLocked(now);
  if (idle_.size() < options_.max_pooled_connections) {
    idle_.push_back(PooledConnection{std::move(socket), now});
  }
}

Result<engine::Relation> RemoteSqlExecutor::ExecuteSqlCancellable(
    std::string_view sql, double timeout_ms, CancelToken* cancel) {
  if (shutdown_.cancelled()) {
    return Status::Unavailable("remote executor is shut down");
  }
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Unavailable("call cancelled");
  }
  IoOptions io;
  io.cancel = &shutdown_;
  io.cancel2 = options_.cancel;
  io.cancel3 = cancel;
  io.poll_interval_ms = options_.poll_interval_ms;
  bool has_deadline = timeout_ms > 0;
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  if (has_deadline) {
    io.has_deadline = true;
    io.deadline = deadline;
  }

  // Trace only when the caller installed a recording span AND the peer is
  // not known-legacy; a legacy peer closes the connection on any v2 frame.
  obs::SpanHandle* current = obs::CurrentSpan();
  bool traced = current != nullptr && current->recording() &&
                current->tracer() != nullptr && peer_version_.load() != 1;

  bool from_pool = false;
  auto socket = AcquireConnection(io, &from_pool);
  SILK_RETURN_IF_ERROR(socket.status());
  auto result = Exchange(&*socket, sql, io, has_deadline, deadline, traced);
  if (!result.ok() && from_pool &&
      result.status().code() == StatusCode::kUnavailable) {
    // The parked connection died while idle (server restart, half-open
    // TCP). Its siblings in the pool are as old or older — drop them all —
    // and retry once on a fresh dial. Queries are read-only, so the
    // re-send cannot double-apply; without this, the first call after a
    // server restart is a guaranteed spurious backend failure.
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      idle_.clear();
    }
    auto fresh = DialWithBackoff(io);
    SILK_RETURN_IF_ERROR(fresh.status());
    socket = std::move(fresh);
    result = Exchange(&*socket, sql, io, has_deadline, deadline, traced);
  }
  if (!result.ok() && traced && peer_version_.load() == 0 &&
      result.status().code() == StatusCode::kUnavailable &&
      !shutdown_.cancelled() &&
      (cancel == nullptr || !cancel->cancelled())) {
    // Version negotiation, the downgrade half (DESIGN.md §14): a legacy
    // peer rejects the v2 header at decode — before executing anything —
    // and closes, so the untraced re-send on a fresh connection cannot
    // double-apply. If it succeeds, remember the peer is legacy and stop
    // sending v2 for the lifetime of this executor.
    auto fresh = DialWithBackoff(io);
    if (fresh.ok()) {
      auto retried =
          Exchange(&*fresh, sql, io, has_deadline, deadline, /*traced=*/false);
      if (retried.ok()) {
        peer_version_.store(1);
        if (current != nullptr) {
          current->Annotate("wire_downgrade", "legacy peer, trace dropped");
        }
        socket = std::move(fresh);
        result = std::move(retried);
      }
    }
  }
  if (result.ok()) {
    // Only a connection that completed a full exchange is safe to reuse:
    // after any failure the stream offset is unknown.
    ReleaseConnection(std::move(*socket));
  }
  return result;
}

Result<engine::Relation> RemoteSqlExecutor::Exchange(
    Socket* socket, std::string_view sql, const IoOptions& io,
    bool has_deadline, std::chrono::steady_clock::time_point deadline,
    bool traced) {
  obs::SpanHandle* attempt = traced ? obs::CurrentSpan() : nullptr;
  obs::Tracer* tracer = attempt != nullptr ? attempt->tracer() : nullptr;
  if (attempt == nullptr || !attempt->recording() || tracer == nullptr) {
    traced = false;
  }

  // Sample the remaining budget immediately before the send, so queue/dial
  // time already spent is subtracted from what the server sees.
  uint64_t budget_us = 0;
  if (has_deadline) {
    auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
                         deadline - std::chrono::steady_clock::now())
                         .count();
    if (remaining <= 0) {
      return Status::Timeout("deadline exceeded before request send");
    }
    budget_us = static_cast<uint64_t>(remaining);
  }
  uint64_t request_id = next_request_id_.fetch_add(1);

  FrameHeader header;
  header.type = FrameType::kRequest;
  header.request_id = request_id;
  header.budget_us = budget_us;
  std::string payload;
  uint64_t send_ns = 0;
  if (traced) {
    // Trace context rides the request as a v2 frame: trace id (the client
    // root's ordinal) plus this attempt span's id, under which the server's
    // subtree is stitched when its kEnd comes back.
    header.version = kWireVersion;
    header.flags = kFlagTrace;
    WireTraceContext context;
    const std::string& span_id = attempt->id();
    auto dot = span_id.find('.');
    context.trace_id =
        dot == std::string::npos ? span_id : span_id.substr(0, dot);
    context.parent_span_id = span_id;
    EncodeTracedRequestPayload(sql, context, &payload);
    send_ns = tracer->NowNs();
  } else {
    EncodeRequestPayload(sql, &payload);
  }
  SILK_RETURN_IF_ERROR(WriteFrame(socket, header, payload, io));
  requests_sent_.fetch_add(1);
  if (m_frames_out_ != nullptr) m_frames_out_->Add(1);

  // Collect kChunk frames until kEnd (success) or kError. Decode failures
  // and protocol violations are kUnavailable: a peer speaking garbage is a
  // broken peer.
  std::string relation_bytes;
  while (true) {
    auto frame = ReadFrame(socket, io, options_.max_payload);
    if (!frame.ok()) {
      if (traced && io.cancel3 != nullptr && io.cancel3->cancelled() &&
          !shutdown_.cancelled() && options_.trace_drain_ms > 0) {
        // A hedged-race loser: the per-call token aborted this read, but
        // the server is still finishing and its kEnd carries the trace
        // block. Salvage it within a small bounded window so cancelled
        // attempts still show their server-side phase spans, then return
        // the original cancelled status unchanged.
        DrainTraceBlock(socket, request_id, attempt, tracer, send_ns);
      }
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        decode_errors_.fetch_add(1);
        if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
        return Status::Unavailable("malformed frame from " + options_.host +
                                   ": " + frame.status().message());
      }
      return frame.status();
    }
    if (m_frames_in_ != nullptr) m_frames_in_->Add(1);
    if (frame->header.request_id != request_id) {
      decode_errors_.fetch_add(1);
      if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
      return Status::Unavailable(
          "response request_id mismatch (got " +
          std::to_string(frame->header.request_id) + ", want " +
          std::to_string(request_id) + ")");
    }
    switch (frame->header.type) {
      case FrameType::kChunk: {
        if (relation_bytes.size() + frame->payload.size() >
            static_cast<size_t>(options_.max_payload)) {
          decode_errors_.fetch_add(1);
          if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
          return Status::Unavailable("response relation exceeds max payload");
        }
        relation_bytes.append(frame->payload);
        break;
      }
      case FrameType::kEnd: {
        const bool end_traced = frame->header.version >= 2 &&
                                (frame->header.flags & kFlagTrace) != 0;
        std::vector<WireSpan> server_spans;
        Result<EndPayload> end = [&]() -> Result<EndPayload> {
          if (end_traced) {
            auto decoded = DecodeTracedEndPayload(frame->payload);
            if (!decoded.ok()) return decoded.status();
            server_spans = std::move(decoded->spans);
            return decoded->end;
          }
          return DecodeEndPayload(frame->payload);
        }();
        if (!end.ok()) {
          decode_errors_.fetch_add(1);
          if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
          return Status::Unavailable("malformed end payload: " +
                                     end.status().message());
        }
        if (end_traced) peer_version_.store(2);
        if (traced && !server_spans.empty()) {
          trace_stitches_.fetch_add(1);
          StitchServerSpans(attempt, tracer, std::move(server_spans),
                            send_ns);
        }
        if (end->relation_bytes != relation_bytes.size()) {
          decode_errors_.fetch_add(1);
          if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
          return Status::Unavailable(
              "relation byte count mismatch (got " +
              std::to_string(relation_bytes.size()) + ", end frame says " +
              std::to_string(end->relation_bytes) + ")");
        }
        auto relation = DeserializeRelation(relation_bytes);
        if (!relation.ok()) {
          decode_errors_.fetch_add(1);
          if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
          return Status::Unavailable("malformed relation from " +
                                     options_.host + ": " +
                                     relation.status().message());
        }
        if (relation->rows.size() != end->rows) {
          decode_errors_.fetch_add(1);
          if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
          return Status::Unavailable(
              "relation row count mismatch (got " +
              std::to_string(relation->rows.size()) + ", end frame says " +
              std::to_string(end->rows) + ")");
        }
        return relation;
      }
      case FrameType::kError: {
        Status carried = Status::OK();
        Status decode = DecodeErrorPayload(frame->payload, &carried);
        if (!decode.ok()) {
          decode_errors_.fetch_add(1);
          if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
          return Status::Unavailable("malformed error payload: " +
                                     decode.message());
        }
        // The server's status passes through verbatim (kTimeout stays
        // kTimeout so deadline semantics survive the wire).
        return carried;
      }
      case FrameType::kRequest:
      case FrameType::kStats:
      case FrameType::kVersions: {
        decode_errors_.fetch_add(1);
        if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
        return Status::Unavailable(
            std::string("unexpected ") +
            FrameTypeToString(frame->header.type) + " frame from server");
      }
    }
  }
}

void RemoteSqlExecutor::DrainTraceBlock(Socket* socket, uint64_t request_id,
                                        obs::SpanHandle* attempt,
                                        obs::Tracer* tracer,
                                        uint64_t send_ns) {
  // Fresh IoOptions: the per-call cancel token already fired, so only the
  // shutdown tokens and a small absolute deadline bound this salvage read.
  IoOptions drain = IoOptions::WithTimeout(options_.trace_drain_ms);
  drain.cancel = &shutdown_;
  drain.cancel2 = options_.cancel;
  drain.poll_interval_ms = options_.poll_interval_ms;
  while (true) {
    auto frame = ReadFrame(socket, drain, options_.max_payload);
    if (!frame.ok()) return;
    if (m_frames_in_ != nullptr) m_frames_in_->Add(1);
    if (frame->header.request_id != request_id) return;
    if (frame->header.type == FrameType::kChunk) continue;
    if (frame->header.type == FrameType::kEnd &&
        frame->header.version >= 2 &&
        (frame->header.flags & kFlagTrace) != 0) {
      auto decoded = DecodeTracedEndPayload(frame->payload);
      if (decoded.ok() && !decoded->spans.empty()) {
        peer_version_.store(2);
        trace_drains_.fetch_add(1);
        trace_stitches_.fetch_add(1);
        if (attempt != nullptr) attempt->Annotate("trace_drained", "true");
        StitchServerSpans(attempt, tracer, std::move(decoded->spans),
                          send_ns);
      }
    }
    return;  // kEnd/kError either way: the exchange is over
  }
}

Result<std::vector<std::pair<std::string, uint64_t>>>
RemoteSqlExecutor::FetchTableVersions(const std::vector<std::string>& tables) {
  if (shutdown_.cancelled()) {
    return Status::Unavailable("remote executor is shut down");
  }
  if (peer_version_.load() == 1) {
    // kVersions exists only on the v2 wire; a known-legacy peer would
    // close the connection. Declining here lets the publisher run uncached
    // without burning a dial.
    return Status::Unavailable("legacy peer: no table versions on v1 wire");
  }
  IoOptions io;
  io.cancel = &shutdown_;
  io.cancel2 = options_.cancel;
  io.poll_interval_ms = options_.poll_interval_ms;
  double timeout_ms = timeout_ms_ > 0 ? timeout_ms_ : options_.dial_timeout_ms;
  if (timeout_ms > 0) {
    io.has_deadline = true;
    io.deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(timeout_ms));
  }

  auto exchange = [&](Socket* socket)
      -> Result<std::vector<std::pair<std::string, uint64_t>>> {
    std::string payload;
    EncodeVersionsRequestPayload(tables, &payload);
    FrameHeader header;
    header.version = kWireVersion;
    header.type = FrameType::kVersions;
    header.request_id = next_request_id_.fetch_add(1);
    SILK_RETURN_IF_ERROR(WriteFrame(socket, header, payload, io));
    requests_sent_.fetch_add(1);
    if (m_frames_out_ != nullptr) m_frames_out_->Add(1);
    auto reply = ReadFrame(socket, io, options_.max_payload);
    SILK_RETURN_IF_ERROR(reply.status());
    if (m_frames_in_ != nullptr) m_frames_in_->Add(1);
    if (reply->header.type == FrameType::kError) {
      Status carried = Status::OK();
      SILK_RETURN_IF_ERROR(DecodeErrorPayload(reply->payload, &carried));
      if (!carried.ok()) return carried;
      return Status::Unavailable("error frame carrying an OK status");
    }
    if (reply->header.type != FrameType::kVersions) {
      return Status::Unavailable(
          std::string("unexpected ") + FrameTypeToString(reply->header.type) +
          " frame in reply to versions request");
    }
    auto versions = DecodeVersionsResponsePayload(reply->payload);
    if (!versions.ok()) {
      decode_errors_.fetch_add(1);
      if (m_decode_errors_ != nullptr) m_decode_errors_->Add(1);
      return Status::Unavailable("malformed versions response: " +
                                 versions.status().message());
    }
    peer_version_.store(2);  // a kVersions answer proves a v2 peer
    return versions;
  };

  bool from_pool = false;
  auto socket = AcquireConnection(io, &from_pool);
  SILK_RETURN_IF_ERROR(socket.status());
  auto result = exchange(&*socket);
  if (!result.ok() && from_pool &&
      result.status().code() == StatusCode::kUnavailable) {
    // Same idle-death retry as ExecuteSql: the fetch is read-only, so a
    // one-shot re-send on a fresh dial cannot double-apply anything.
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      idle_.clear();
    }
    auto fresh = DialWithBackoff(io);
    SILK_RETURN_IF_ERROR(fresh.status());
    socket = std::move(fresh);
    result = exchange(&*socket);
  }
  if (result.ok()) ReleaseConnection(std::move(*socket));
  return result;
}

Result<std::string> FetchServerStats(const std::string& host, uint16_t port,
                                     double timeout_ms) {
  IoOptions io = IoOptions::WithTimeout(timeout_ms);
  auto socket = Dial(host, port, io);
  SILK_RETURN_IF_ERROR(socket.status());
  FrameHeader header;
  header.version = kWireVersion;  // kStats exists only on the v2 wire
  header.type = FrameType::kStats;
  header.request_id = 1;
  SILK_RETURN_IF_ERROR(WriteFrame(&*socket, header, "", io));
  auto reply = ReadFrame(&*socket, io, kMaxFramePayload);
  if (!reply.ok()) {
    if (reply.status().code() == StatusCode::kUnavailable) {
      return Status::Unavailable(
          "stats scrape failed (legacy pre-v2 server, or server down): " +
          reply.status().message());
    }
    return reply.status();
  }
  if (reply->header.type == FrameType::kError) {
    Status carried = Status::OK();
    SILK_RETURN_IF_ERROR(DecodeErrorPayload(reply->payload, &carried));
    if (!carried.ok()) return carried;
    return Status::Unavailable("error frame carrying an OK status");
  }
  if (reply->header.type != FrameType::kStats) {
    return Status::Unavailable(
        std::string("unexpected ") + FrameTypeToString(reply->header.type) +
        " frame in reply to stats request");
  }
  return reply->payload;
}

}  // namespace silkroute::net
