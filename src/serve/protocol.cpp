#include "serve/protocol.hpp"

#include "common/bytes.hpp"

namespace osim::serve {

std::string handshake_bytes() {
  std::string out;
  bytes::Writer w(out);
  w.raw(kHandshakeMagic);
  w.u32(kProtocolVersion);
  return out;
}

bool check_handshake(std::string_view peer) {
  if (peer.size() != kHandshakeBytes) return false;
  if (!peer.starts_with(kHandshakeMagic)) return false;
  bytes::Reader reader(peer.substr(kHandshakeMagic.size()));
  return reader.u32() == kProtocolVersion && reader.done();
}

const char* rpc_error_code_name(RpcErrorCode code) {
  switch (code) {
    case RpcErrorCode::kBadRequest:
      return "bad-request";
    case RpcErrorCode::kBusy:
      return "busy";
    case RpcErrorCode::kNotFound:
      return "not-found";
    case RpcErrorCode::kFailed:
      return "failed";
    case RpcErrorCode::kShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* submit_disposition_name(SubmitDisposition disposition) {
  switch (disposition) {
    case SubmitDisposition::kFresh:
      return "fresh";
    case SubmitDisposition::kShared:
      return "shared";
    case SubmitDisposition::kServed:
      return "served";
  }
  return "unknown";
}

std::string encode_client_message(const ClientMessage& message) {
  std::string out;
  bytes::Writer w(out);
  if (const auto* m = std::get_if<SubmitScenario>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kSubmitScenario));
    encode_spec(w, m->spec);
  } else if (const auto* m = std::get_if<SubmitStudy>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kSubmitStudy));
    encode_spec(w, m->base);
    w.u32(static_cast<std::uint32_t>(m->bandwidths.size()));
    for (const double bw : m->bandwidths) w.f64(bw);
  } else if (const auto* m = std::get_if<PollStatus>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kPollStatus));
    pipeline::write_fingerprint(w, m->ticket);
    w.boolean(m->wait);
  } else if (const auto* m = std::get_if<FetchReport>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kFetchReport));
    pipeline::write_fingerprint(w, m->ticket);
  } else if (const auto* m = std::get_if<Cancel>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kCancel));
    pipeline::write_fingerprint(w, m->ticket);
  } else if (std::get_if<ServerStats>(&message) != nullptr) {
    w.u8(static_cast<std::uint8_t>(MsgType::kServerStats));
  } else {
    w.u8(static_cast<std::uint8_t>(MsgType::kShutdown));
  }
  return out;
}

std::optional<ClientMessage> decode_client_message(std::string_view payload) {
  bytes::Reader reader(payload);
  switch (static_cast<MsgType>(reader.u8())) {
    case MsgType::kSubmitScenario: {
      SubmitScenario m;
      m.spec = decode_spec(reader);
      if (!reader.done()) return std::nullopt;
      return ClientMessage(m);
    }
    case MsgType::kSubmitStudy: {
      SubmitStudy m;
      m.base = decode_spec(reader);
      const std::uint32_t count = reader.u32();
      // Each bandwidth is 8 bytes; bound the loop by what is actually
      // present so a forged count cannot drive a giant reserve.
      if (!reader.ok() || count > reader.remaining() / 8) return std::nullopt;
      m.bandwidths.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        m.bandwidths.push_back(reader.f64());
      }
      if (!reader.done()) return std::nullopt;
      return ClientMessage(m);
    }
    case MsgType::kPollStatus: {
      PollStatus m;
      m.ticket = pipeline::read_fingerprint(reader);
      m.wait = reader.boolean();
      if (!reader.done()) return std::nullopt;
      return ClientMessage(m);
    }
    case MsgType::kFetchReport: {
      FetchReport m;
      m.ticket = pipeline::read_fingerprint(reader);
      if (!reader.done()) return std::nullopt;
      return ClientMessage(m);
    }
    case MsgType::kCancel: {
      Cancel m;
      m.ticket = pipeline::read_fingerprint(reader);
      if (!reader.done()) return std::nullopt;
      return ClientMessage(m);
    }
    case MsgType::kServerStats: {
      if (!reader.done()) return std::nullopt;
      return ClientMessage(ServerStats{});
    }
    case MsgType::kShutdown: {
      if (!reader.done()) return std::nullopt;
      return ClientMessage(Shutdown{});
    }
    default:
      return std::nullopt;
  }
}

std::string encode_server_message(const ServerMessage& message) {
  std::string out;
  bytes::Writer w(out);
  if (const auto* m = std::get_if<Submitted>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kSubmitted));
    w.u32(static_cast<std::uint32_t>(m->tickets.size()));
    for (const TicketInfo& t : m->tickets) {
      pipeline::write_fingerprint(w, t.ticket);
      w.u8(static_cast<std::uint8_t>(t.disposition));
    }
  } else if (const auto* m = std::get_if<StatusReply>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kStatus));
    pipeline::write_fingerprint(w, m->ticket);
    w.u8(static_cast<std::uint8_t>(m->state));
    w.u32(m->attempts);
    w.string32(m->error);
  } else if (const auto* m = std::get_if<ReportReply>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kReport));
    pipeline::write_fingerprint(w, m->ticket);
    w.string32(m->report_json);
  } else if (const auto* m = std::get_if<StatsReply>(&message)) {
    w.u8(static_cast<std::uint8_t>(MsgType::kStats));
    w.string32(m->stats_json);
  } else if (std::get_if<OkReply>(&message) != nullptr) {
    w.u8(static_cast<std::uint8_t>(MsgType::kOk));
  } else {
    const auto& m = std::get<ErrorReply>(message);
    w.u8(static_cast<std::uint8_t>(MsgType::kError));
    w.u8(static_cast<std::uint8_t>(m.code));
    w.string32(m.message);
  }
  return out;
}

std::optional<ServerMessage> decode_server_message(std::string_view payload) {
  bytes::Reader reader(payload);
  switch (static_cast<MsgType>(reader.u8())) {
    case MsgType::kSubmitted: {
      Submitted m;
      const std::uint32_t count = reader.u32();
      // 17 bytes per ticket (fingerprint + disposition).
      if (!reader.ok() || count > reader.remaining() / 17) return std::nullopt;
      m.tickets.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        TicketInfo t;
        t.ticket = pipeline::read_fingerprint(reader);
        const std::uint8_t d = reader.u8();
        if (d > static_cast<std::uint8_t>(SubmitDisposition::kServed)) {
          return std::nullopt;
        }
        t.disposition = static_cast<SubmitDisposition>(d);
        m.tickets.push_back(t);
      }
      if (!reader.done()) return std::nullopt;
      return ServerMessage(m);
    }
    case MsgType::kStatus: {
      StatusReply m;
      m.ticket = pipeline::read_fingerprint(reader);
      const std::uint8_t state = reader.u8();
      m.attempts = reader.u32();
      m.error = reader.string32();
      if (!reader.done() ||
          state > static_cast<std::uint8_t>(JobState::kCancelled)) {
        return std::nullopt;
      }
      m.state = static_cast<JobState>(state);
      return ServerMessage(m);
    }
    case MsgType::kReport: {
      ReportReply m;
      m.ticket = pipeline::read_fingerprint(reader);
      m.report_json = reader.string32();
      if (!reader.done()) return std::nullopt;
      return ServerMessage(m);
    }
    case MsgType::kStats: {
      StatsReply m;
      m.stats_json = reader.string32();
      if (!reader.done()) return std::nullopt;
      return ServerMessage(m);
    }
    case MsgType::kOk: {
      if (!reader.done()) return std::nullopt;
      return ServerMessage(OkReply{});
    }
    case MsgType::kError: {
      ErrorReply m;
      const std::uint8_t code = reader.u8();
      m.message = reader.string32();
      if (!reader.done() || code < 1 ||
          code > static_cast<std::uint8_t>(RpcErrorCode::kShuttingDown)) {
        return std::nullopt;
      }
      m.code = static_cast<RpcErrorCode>(code);
      return ServerMessage(m);
    }
    default:
      return std::nullopt;
  }
}

void append_frame(std::string& out, std::string_view payload) {
  bytes::Writer(out).string32(payload);
}

void FrameReader::feed(std::string_view bytes) {
  if (error_) return;
  // Compact lazily: drop consumed bytes once they dominate the buffer so
  // a long-lived connection does not grow without bound.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

std::optional<std::string> FrameReader::next() {
  if (error_) return std::nullopt;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::nullopt;
  const std::uint32_t length =
      bytes::load_le<std::uint32_t>(buffer_.data() + consumed_);
  if (length > kMaxFrameBytes) {
    // Poison before any payload allocation: the declared length is the
    // attack surface, and it is judged from the 4 header bytes alone.
    error_ = true;
    return std::nullopt;
  }
  if (available < 4 + static_cast<std::size_t>(length)) return std::nullopt;
  std::string payload = buffer_.substr(consumed_ + 4, length);
  consumed_ += 4 + static_cast<std::size_t>(length);
  return payload;
}

}  // namespace osim::serve
