#include "core/doh_client.hpp"

#include <algorithm>

#include "dns/base64url.hpp"
#include "dns/json.hpp"

namespace dohperf::core {

namespace {

constexpr std::string_view kDnsMessage = "application/dns-message";
constexpr std::string_view kDnsJson = "application/dns-json";
constexpr std::string_view kUserAgent =
    "Mozilla/5.0 (X11; Linux x86_64; rv:66.0) Gecko/20100101 Firefox/66.0";

}  // namespace

CostReport DohClient::Stack::snapshot() const {
  return core::snapshot(tcp ? &tcp->counters() : nullptr,
                        tls ? &tls->counters() : nullptr,
                        h1 ? &h1->counters() : nullptr,
                        h2 ? &h2->counters() : nullptr);
}

DohClient::DohClient(simnet::Host& host, simnet::Address server,
                     DohClientConfig config)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      ledger_(host.loop(), config_.obs,
              config_.http_version == HttpVersion::kHttp2 ? "doh_h2"
                                                          : "doh_h1",
              config_.retry.max_retries, /*charge_on_finish=*/false),
      lifecycle_(
          host, ledger_, config_.retry, config_.migration,
          [this]() { return in_flight(); },
          [this](const char* reason) { race_.migrate(reason, in_flight()); }),
      race_(lifecycle_, host.loop(), *this) {}

DohClient::~DohClient() = default;

bool DohClient::in_flight() const {
  const auto& stack = race_.current();
  return stack && !stack->outstanding.empty();
}

std::shared_ptr<DohClient::Stack> DohClient::open_connection(
    obs::SpanId parent) {
  auto stack = std::make_shared<Stack>();
  stack->spans.begin(config_.obs, parent, "tcp_handshake");
  stack->tcp = host_.tcp_connect(server_);

  tlssim::ClientConfig tls_config;
  tls_config.sni = config_.server_name;
  tls_config.max_version = config_.max_tls;
  tls_config.session_cache = config_.session_cache;
  tls_config.alpn = {config_.http_version == HttpVersion::kHttp2
                         ? "h2"
                         : "http/1.1"};
  auto tls = std::make_unique<tlssim::TlsConnection>(
      std::make_unique<simnet::TcpByteStream>(stack->tcp),
      std::move(tls_config));
  stack->tls = tls.get();

  // One error handler per connection, not per query: a transport loss or
  // GOAWAY fails every query in flight on this stack at once.
  std::weak_ptr<Stack> weak = stack;
  auto on_error = [this, weak]() {
    if (auto s = weak.lock()) on_stack_error(s);
  };

  if (config_.obs.tracer != nullptr) {
    // Split connection setup into tcp_handshake / tls_handshake spans. The
    // hooks stay with us even though the HTTP layer owns the TLS handlers.
    tls->set_transport_open_hook([this, weak]() {
      if (auto s = weak.lock()) s->spans.transport_open(config_.obs);
    });
  }
  // Always installed (not only when tracing): this is where handshake and
  // resumption accounting happens, and where a migration racer reports in.
  tls->set_established_hook([this, weak]() {
    auto s = weak.lock();
    if (!s) return;
    s->spans.established(config_.obs, s->tls);
    lifecycle_.account_tls(*s->tls);
    if (s == race_.racer()) race_.racer_established();
  });

  if (config_.http_version == HttpVersion::kHttp2) {
    stack->h2 = std::make_unique<http2::Http2Connection>(
        std::move(tls), http2::Http2Connection::Role::kClient, config_.h2);
    stack->h2->set_error_handler(std::move(on_error));
    if (config_.obs.tracer != nullptr) {
      stack->h2->set_stream_observer(
          [this, weak](std::uint32_t stream_id, http2::StreamEvent event) {
            if (auto s = weak.lock()) on_stream_event(s, stream_id, event);
          });
    }
  } else {
    stack->h1 = std::make_unique<http1::Http1Client>(std::move(tls),
                                                     config_.h1_pipelining);
    stack->h1->set_error_handler(std::move(on_error));
  }
  return stack;
}

void DohClient::on_stream_event(const std::shared_ptr<Stack>& stack,
                                std::uint32_t stream_id,
                                http2::StreamEvent event) {
  switch (event) {
    case http2::StreamEvent::kRequestSent: {
      if (stack->awaiting_stream.empty()) return;
      const std::uint64_t query_id = stack->awaiting_stream.front();
      stack->awaiting_stream.pop_front();
      stack->stream_to_query.emplace(stream_id, query_id);
      QueryState& state = states_[query_id];
      config_.obs.set_attr(state.retry.request_span, "stream_id",
                           static_cast<std::int64_t>(stream_id));
      config_.obs.end(state.retry.request_span);
      return;
    }
    case http2::StreamEvent::kResponseBegan: {
      const auto it = stack->stream_to_query.find(stream_id);
      if (it == stack->stream_to_query.end()) return;
      QueryState& state = states_[it->second];
      if (state.done || state.retry.span == 0) return;
      state.response_span =
          config_.obs.tracer->begin(state.retry.span, "response");
      config_.obs.set_attr(state.response_span, "stream_id",
                           static_cast<std::int64_t>(stream_id));
      return;
    }
    case http2::StreamEvent::kStreamClosed: {
      const auto it = stack->stream_to_query.find(stream_id);
      if (it == stack->stream_to_query.end()) return;
      states_[it->second].end_response(config_.obs);
      stack->stream_to_query.erase(it);
      return;
    }
  }
}

bool DohClient::live(const std::shared_ptr<Stack>& stack) {
  // Replaced once the transport failed or closed, or the server announced
  // shutdown (GOAWAY).
  return stack && !stack->broken && !stack->tls->failed() &&
         !stack->tls->closed() &&
         !(stack->h2 && stack->h2->goaway_received());
}

std::uint64_t DohClient::wire_bytes(const std::shared_ptr<Stack>& stack) {
  return stack && stack->tcp ? stack->tcp->counters().total_wire_bytes() : 0;
}

void DohClient::abort_connection(std::shared_ptr<Stack>& stack) {
  if (stack->tcp) stack->tcp->abort();  // no local callbacks fire
  stack->spans.abandon(config_.obs);
}

void DohClient::reissue_from(const std::shared_ptr<Stack>& old,
                             ReissueCause cause) {
  // A promoted racer's queries move to it at once (kMigration), as DoT's do.
  const std::shared_ptr<Stack> stack = old;  // on_stack_error may reset `old`
  on_stack_error(stack, cause);
}

std::shared_ptr<DohClient::Stack> DohClient::stack_for_query(
    obs::SpanId parent) {
  if (config_.persistent) return race_.acquire(parent);
  lifecycle_.count(&TransportMetrics::conn_open);
  return open_connection(parent);
}

std::uint64_t DohClient::resolve(const dns::Name& name, dns::RType type,
                                 ResolveCallback callback) {
  QueryState& state = states_.emplace_back();
  const std::uint64_t query_id =
      ledger_.open(state, name, type, std::move(callback));
  state.fresh_stack = !config_.persistent;
  issue(query_id);
  return query_id;
}

void DohClient::issue(std::uint64_t query_id) {
  QueryState& state = states_[query_id];
  const std::shared_ptr<Stack> stack = stack_for_query(state.retry.span);
  state.stack = stack;
  // A fresh stack carries this query alone, so its cost window opens at
  // zero: open_connection() has already sent the SYN.
  state.start = state.fresh_stack ? CostReport{} : stack->snapshot();
  const dns::Name& name = state.name;
  const dns::RType type = state.type;

  // RFC 8484 §4.1: use DNS ID 0 for cache friendliness; correlation is via
  // the HTTP exchange itself.
  dns::Message query = dns::Message::make_query(0, name, type);
  if (config_.pad_queries_to > 0) {
    query.pad_to_multiple(config_.pad_queries_to);
  }
  dns::Bytes body;
  std::string target = config_.path;
  std::string method = "POST";
  std::string accept(kDnsMessage);
  std::string content_type(kDnsMessage);
  std::size_t query_dns_bytes = 0;

  switch (config_.method) {
    case DohMethod::kPost: {
      body = query.encode();
      query_dns_bytes = body.size();
      break;
    }
    case DohMethod::kGet: {
      const dns::Bytes wire = query.encode();
      query_dns_bytes = wire.size();
      target += "?dns=" + dns::base64url_encode(wire);
      method = "GET";
      content_type.clear();
      break;
    }
    case DohMethod::kJsonGet: {
      target += "?" + dns::dns_json_query_string(name, type);
      method = "GET";
      accept = kDnsJson;
      content_type.clear();
      break;
    }
  }
  ledger_.result(query_id).cost.dns_message_bytes += query_dns_bytes;

  state.rx_at_issue =
      stack->tcp ? stack->tcp->counters().wire_bytes_received : 0;
  ledger_.begin_request(state.retry);
  // h2: the stream observer resolves the request span to a stream id once
  // the HEADERS actually leaves (possibly after the handshake).
  if (state.retry.span != 0 && stack->h2) {
    stack->awaiting_stream.push_back(query_id);
  }

  stack->outstanding.push_back(query_id);
  lifecycle_.arm_stall();
  lifecycle_.arm_timeout(state.retry,
                         [this, query_id]() { on_query_timeout(query_id); });

  const auto handle_body = [this, query_id](int status,
                                            const std::string& content_type,
                                            const dns::Bytes& payload) {
    if (status != 200) {
      complete(query_id, false, {}, 0);
      return;
    }
    try {
      if (content_type == kDnsJson) {
        dns::Message response =
            dns::from_dns_json(dns::to_string(payload));
        complete(query_id, true, std::move(response), payload.size());
      } else {
        dns::Message response = dns::Message::decode(payload);
        complete(query_id, true, std::move(response), payload.size());
      }
    } catch (const std::exception&) {
      complete(query_id, false, {}, 0);
    }
  };

  if (stack->h2) {
    http2::H2Message request;
    request.headers.push_back({":method", method});
    request.headers.push_back({":scheme", "https"});
    request.headers.push_back({":authority", config_.server_name});
    request.headers.push_back({":path", target});
    request.headers.push_back({"accept", accept});
    request.headers.push_back({"accept-encoding", "gzip, deflate, br"});
    request.headers.push_back({"accept-language", "en-US,en;q=0.5"});
    request.headers.push_back({"user-agent", std::string(kUserAgent)});
    if (!content_type.empty()) {
      request.headers.push_back({"content-type", content_type});
      request.headers.push_back(
          {"content-length", std::to_string(body.size())});
    }
    request.body = std::move(body);
    stack->h2->request(std::move(request),
                       [handle_body](const http2::H2Message& response) {
                         std::string status = "0";
                         std::string ct;
                         for (const auto& f : response.headers) {
                           if (f.name == ":status") status = f.value;
                           if (f.name == "content-type") ct = f.value;
                         }
                         handle_body(std::atoi(status.c_str()), ct,
                                     response.body);
                       });
  } else {
    http1::Request request;
    request.method = method;
    request.target = target;
    request.headers.add("Host", config_.server_name);
    request.headers.add("User-Agent", std::string(kUserAgent));
    request.headers.add("Accept", accept);
    if (!content_type.empty()) {
      request.headers.add("Content-Type", content_type);
    }
    if (!config_.persistent) {
      request.headers.add("Connection", "close");
    }
    request.body = std::move(body);
    stack->h1->request(std::move(request),
                       [handle_body](const http1::Response& response) {
                         handle_body(
                             response.status,
                             response.headers.get("content-type").value_or(""),
                             response.body);
                       });
  }
}

void DohClient::on_stack_error(const std::shared_ptr<Stack>& stack,
                               ReissueCause cause, std::uint64_t suspect) {
  if (stack->broken) return;  // double report (close after reset etc.)
  stack->broken = true;
  if (stack == race_.racer()) {
    race_.racer_failed();
    return;
  }
  if (race_.current() == stack) race_.current().reset();
  // Spans of a connection that died mid-handshake must not stay open.
  stack->spans.abandon(config_.obs);
  for (const std::uint64_t query_id : stack->outstanding) {
    states_[query_id].end_response(config_.obs);
  }
  reissue(stack->outstanding, cause, suspect);
}

void DohClient::reissue(std::vector<std::uint64_t>& ids, ReissueCause cause,
                        std::uint64_t suspect) {
  lifecycle_.reissue_all(
      ids, cause, suspect, /*can_retry=*/true,
      [this](std::uint64_t query_id) -> Query& { return states_[query_id]; },
      [this](std::uint64_t query_id) { complete(query_id, false, {}, 0); },
      [this](std::uint64_t query_id) {
        if (!states_[query_id].done) issue(query_id);
      });
}

void DohClient::on_query_timeout(std::uint64_t query_id) {
  QueryState& state = states_[query_id];
  if (state.done) return;
  const auto stack = state.stack;
  if (stack) {
    auto& out = stack->outstanding;
    out.erase(std::remove(out.begin(), out.end(), query_id), out.end());
  }
  if (!lifecycle_.timed_out(state.retry)) {
    complete(query_id, false, {}, 0);
    return;
  }
  // Zero bytes received on the connection across the whole timeout window
  // means the path, not the stream, is stalled (e.g. the 5-tuple died under
  // a silent NAT rebind) — the moral equivalent of an h2 PING timeout. An
  // h2 per-stream re-issue would just rejoin the dead connection.
  const bool conn_dead =
      stack && !stack->broken && stack->tcp &&
      stack->tcp->counters().wire_bytes_received == state.rx_at_issue;
  if (stack && !stack->broken && (stack->h1 || conn_dead)) {
    // HTTP/1.1 serializes responses on the connection, so a stalled
    // exchange blocks everything queued behind it; re-issuing here would
    // join the same blocked queue. Kill the suspect connection and let the
    // reconnect path re-issue every query in flight on it, this one
    // included.
    stack->outstanding.push_back(query_id);
    if (stack->tcp) stack->tcp->abort();  // no local callbacks fire
    on_stack_error(stack, ReissueCause::kTimeoutTeardown, query_id);
    return;
  }
  // HTTP/2 multiplexes streams independently: only this exchange is
  // stalled, so re-issue immediately — the elapsed timeout was the wait.
  state.end_response(config_.obs);
  std::vector<std::uint64_t> stalled{query_id};
  reissue(stalled, ReissueCause::kTimeout);
}

void DohClient::complete(std::uint64_t query_id, bool success,
                         dns::Message response, std::size_t dns_bytes) {
  QueryState& state = states_[query_id];
  if (state.done) return;  // error handler may race the response
  state.done = true;
  lifecycle_.cancel_stall();
  if (state.stack) {
    auto& out = state.stack->outstanding;
    out.erase(std::remove(out.begin(), out.end(), query_id), out.end());
  }
  if (success) {
    lifecycle_.succeeded();
    race_.drop_racer();  // the old path answered
  } else {
    ++failures_;
  }
  if (!state.fresh_stack && state.stack) {
    // Persistent connection: freeze the counter window one event from now,
    // so the TCP ACK triggered by the response segment is still attributed
    // to this query, but later queries are not.
    host_.loop().schedule_in(0, [this, query_id]() {
      QueryState& s = states_[query_id];
      if (s.stack && !s.have_end) {
        s.end = s.stack->snapshot();
        s.have_end = true;
        s.stack.reset();  // the race (or nobody) still holds the connection
      }
    });
  }

  state.end_response(config_.obs);
  if (state.stack && state.stack->h2 && config_.obs.metrics != nullptr) {
    // HPACK dynamic-table hits are per-connection cumulative; export the
    // delta since the last completion on this stack.
    const std::uint64_t hits = state.stack->h2->encoder_stats().indexed_dynamic;
    if (hits > state.stack->hpack_reported) {
      lifecycle_.count(&TransportMetrics::hpack_dyn_hits,
                       hits - state.stack->hpack_reported);
      state.stack->hpack_reported = hits;
    }
  }
  if (!config_.persistent && state.stack) {
    // Tear the connection down; the remaining FIN/close-notify bytes are
    // part of the cost, which is frozen once the connection has closed.
    if (state.stack->h2) state.stack->h2->close();
    if (state.stack->h1) state.stack->h1->close();
    release_when_closed(query_id);
  }
  // The cost is charged when result() finalizes it.
  ledger_.finish(states_[query_id], success, std::move(response), dns_bytes);
  if (in_flight()) lifecycle_.arm_stall();
}

void DohClient::release_when_closed(std::uint64_t query_id) {
  const std::shared_ptr<Stack>& stack = states_[query_id].stack;
  // Freeze the whole connection's cost and drop the stack one event after
  // TCP reaches CLOSED: its counters are final by then, and the stack must
  // not be destroyed inside its own callbacks.
  auto release = [this, query_id, weak = std::weak_ptr<Stack>(stack)]() {
    const std::shared_ptr<Stack> s = weak.lock();
    if (!s) return;
    QueryState& state = states_[query_id];
    if (state.stack != s) return;
    state.end = s->snapshot();
    state.have_end = true;
    state.stack.reset();
  };
  simnet::EventLoop& loop = host_.loop();
  if (stack->tcp->state() == simnet::TcpState::kClosed) {
    loop.schedule_in(0, std::move(release));
    return;
  }
  stack->tcp->set_closed_hook(
      [&loop, release = std::move(release)]() mutable {
        loop.schedule_in(0, std::move(release));
      });
}

const ResolutionResult& DohClient::result(std::uint64_t id) const {
  const QueryState& state = states_.at(id);
  ResolutionResult& result = ledger_.result(id);
  if (state.done && (state.have_end || state.stack)) {
    // Finalize the transport cost. A fresh stack is read live until its
    // connection has closed (run the loop to idle first), then frozen with
    // the teardown included; a persistent stack uses the window frozen at
    // completion.
    const std::size_t dns_bytes = result.cost.dns_message_bytes;
    const CostReport end =
        state.have_end ? state.end : state.stack->snapshot();
    result.cost = end - state.start;
    result.cost.dns_message_bytes = dns_bytes;
    if (!state.cost_observed) {
      // Charge the span and bytes.* the first time the finalized cost is
      // read — by construction they match this CostReport exactly.
      state.cost_observed = true;
      ledger_.charge(state.retry.span, result.cost);
    }
  }
  return result;
}

void DohClient::disconnect() {
  auto& stack = race_.current();
  if (!stack) return;
  if (stack->h2) stack->h2->close();
  if (stack->h1) stack->h1->close();
  stack.reset();
}

const simnet::TcpCounters* DohClient::tcp_counters() const {
  return race_.current() ? &race_.current()->tcp->counters() : nullptr;
}

const tlssim::TlsCounters* DohClient::tls_counters() const {
  return race_.current() ? &race_.current()->tls->counters() : nullptr;
}

}  // namespace dohperf::core
