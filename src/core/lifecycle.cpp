#include "core/lifecycle.hpp"

namespace dohperf::core {

namespace {

/// With queries in flight and no byte received for this long, the path is
/// suspect and a migration starts. Silent NAT rebinds, which the OS never
/// reports, are caught this way.
constexpr simnet::TimeUs kStallTimeout = simnet::ms(400);

}  // namespace

void ConnectSpans::begin(const obs::SpanContext& obs, obs::SpanId parent,
                         const char* handshake) {
  if (obs.tracer == nullptr) return;
  connect = obs.tracer->begin(parent, "connect");
  transport = obs.tracer->begin(connect, handshake);
}

void ConnectSpans::transport_open(const obs::SpanContext& obs) {
  obs.end(transport);
  transport = 0;
  if (obs.tracer != nullptr) tls = obs.tracer->begin(connect, "tls_handshake");
}

void ConnectSpans::established(const obs::SpanContext& obs,
                               const tlssim::TlsConnection* tls_conn) {
  if (tls != 0 && tls_conn != nullptr) {
    obs.set_attr(tls, "tls_version", tlssim::to_string(tls_conn->version()));
    obs.set_attr(tls, "resumed", tls_conn->resumed());
    if (!tls_conn->alpn().empty()) obs.set_attr(tls, "alpn", tls_conn->alpn());
  }
  abandon(obs);
}

void ConnectSpans::abandon(const obs::SpanContext& obs) {
  obs.end(transport);
  obs.end(tls);
  obs.end(connect);
  connect = transport = tls = 0;
}

ConnectionLifecycle::ConnectionLifecycle(
    simnet::Host& host, QueryLedger& ledger, const RetryPolicy& retry,
    const MigrationConfig& migration, std::function<bool()> busy,
    std::function<void(const char*)> migrate)
    : host_(host),
      ledger_(ledger),
      obs_(ledger.obs()),
      retry_(retry),
      migration_(migration),
      busy_(std::move(busy)),
      migrate_(std::move(migrate)),
      backoff_(retry) {
  if (migration_.enabled) {
    listener_id_ = host_.add_network_change_listener(
        [this](simnet::NetworkChangeKind kind) {
          migrate_(simnet::to_string(kind));
        });
  }
}

ConnectionLifecycle::~ConnectionLifecycle() {
  host_.loop().cancel(stall_timer_);
  if (listener_id_ != 0) host_.remove_network_change_listener(listener_id_);
}

bool ConnectionLifecycle::timed_out(const QueryRetry& q) {
  ++retry_stats_.query_timeouts;
  count(&TransportMetrics::timeouts);
  if (retry_.max_retries <= 0) return false;
  if (q.retries_left > 0) return true;
  ++retry_stats_.budget_exhausted;
  return false;
}

const char* ConnectionLifecycle::reason(ReissueCause cause) noexcept {
  switch (cause) {
    case ReissueCause::kConnectionLoss:
      return "connection_loss";
    case ReissueCause::kTimeoutTeardown:
      return "timeout_teardown";
    case ReissueCause::kMigration:
      return "migration";
    case ReissueCause::kTimeout:
      return "timeout";
  }
  return "";
}

void ConnectionLifecycle::arm_stall() {
  if (!migration_.enabled || stall_timer_.valid) return;
  stall_timer_ = host_.loop().schedule_in(kStallTimeout, [this]() {
    stall_timer_ = simnet::EventId{};
    on_stall();
  });
}

void ConnectionLifecycle::cancel_stall() {
  host_.loop().cancel(stall_timer_);
  stall_timer_ = simnet::EventId{};
}

void ConnectionLifecycle::on_stall() {
  if (!busy_()) return;
  if (obs_.tracer != nullptr) {
    // The probe that condemned the old path before we migrate away from it.
    const obs::SpanId s = obs_.tracer->begin(0, "path_probe");
    obs_.set_attr(s, "transport", ledger_.transport());
    obs_.end(s);
  }
  migrate_("stall");
}

void ConnectionLifecycle::account_tls(const tlssim::TlsConnection& tls) {
  const auto& c = tls.counters();
  account_handshake(
      tls.resumed(), c.handshake_bytes_sent + c.handshake_bytes_received,
      1 + tls_handshake_rtts(tls.version(), tls.resumed()));  // +1: TCP SYN
}

void ConnectionLifecycle::account_handshake(bool resumed,
                                            std::uint64_t bytes,
                                            std::uint64_t rtts) {
  if (resumed) {
    ++migration_stats_.resumed_handshakes;
    count(&TransportMetrics::resumed_handshakes);
  } else {
    ++migration_stats_.full_handshakes;
  }
  migration_stats_.handshake_bytes += bytes;
  migration_stats_.handshake_rtts += rtts;
  if (ever_connected_ && resumed && obs_.tracer != nullptr) {
    // A reconnect that skipped the full handshake via the session ticket.
    const obs::SpanId s = obs_.tracer->begin(0, "reconnect_resume");
    obs_.set_attr(s, "transport", ledger_.transport());
    obs_.end(s);
  }
  ever_connected_ = true;
}

void ConnectionLifecycle::begin_migrate(const char* reason) {
  if (obs_.tracer == nullptr || migrate_span_ != 0) return;
  migrate_span_ = obs_.tracer->begin(0, "migrate");
  obs_.set_attr(migrate_span_, "transport", ledger_.transport());
  obs_.set_attr(migrate_span_, "reason", std::string(reason));
}

void ConnectionLifecycle::end_migrate(const char* winner) {
  if (migrate_span_ == 0) return;
  obs_.set_attr(migrate_span_, "winner", std::string(winner));
  obs_.end(migrate_span_);
  migrate_span_ = 0;
}

void ConnectionLifecycle::record_migration() {
  ++migration_stats_.migrations;
  count(&TransportMetrics::migrations);
}

void ConnectionLifecycle::record_wasted(std::uint64_t bytes) {
  migration_stats_.migration_wasted_bytes += bytes;
  count(&TransportMetrics::migration_wasted_bytes, bytes);
}

}  // namespace dohperf::core
