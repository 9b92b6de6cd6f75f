// The connection lifecycle shared by the connection-oriented resolver
// clients: the stream client behind DNS over TCP and DoT, DoH and DoQ.
// ConnectionLifecycle owns the retry, handshake and migration ledgers, the
// stall detector and the reconnect-and-reissue policy: reissue_all() fails
// or re-issues everything a client has in flight, and query_timeout() turns
// an expired deadline into a teardown or a failure. ConnectSpans holds the
// setup spans of one connection; MigrationRace the connection of the
// stream client and DoH, and its migration race. Each query's result,
// spans and metrics are the client's QueryLedger (core/query_ledger.hpp);
// each client keeps its connection type, its framing and its table of
// queries in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "core/migration.hpp"
#include "core/query_ledger.hpp"
#include "core/retry.hpp"
#include "simnet/host.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::core {

/// Why in-flight queries are re-issued.
enum class ReissueCause {
  /// The connection died: every query is charged, after one backoff.
  kConnectionLoss,
  /// A query timeout condemned the connection: only that query (the
  /// suspect) is charged, and it goes last so a repeat stall cannot block
  /// the rest of the batch again.
  kTimeoutTeardown,
  /// Moved to a validated new path: charged, re-sent at once.
  kMigration,
  /// One multiplexed stream timed out: charged, re-sent at once.
  kTimeout,
};

/// The setup spans of one connection: `connect`, the transport handshake
/// under it (`tcp_handshake` or `quic_handshake`) and, for TLS over TCP,
/// the `tls_handshake` that follows. All 0 when tracing is off.
struct ConnectSpans {
  obs::SpanId connect = 0;
  obs::SpanId transport = 0;
  obs::SpanId tls = 0;

  void begin(const obs::SpanContext& obs, obs::SpanId parent,
             const char* handshake);
  /// The transport is up: its span ends, `tls_handshake` begins.
  void transport_open(const obs::SpanContext& obs);
  /// Tag `tls_handshake` (version, resumed, alpn when negotiated) and close
  /// every span.
  void established(const obs::SpanContext& obs,
                   const tlssim::TlsConnection* tls);
  /// Close whatever is still open (the connection died or was abandoned).
  void abandon(const obs::SpanContext& obs);
};

class ConnectionLifecycle {
 public:
  /// `ledger`, `retry` and `migration` belong to the owning client and
  /// must outlive this object. `busy` tells whether queries are in flight;
  /// `migrate` starts a migration (stall or host network change).
  ConnectionLifecycle(simnet::Host& host, QueryLedger& ledger,
                      const RetryPolicy& retry,
                      const MigrationConfig& migration,
                      std::function<bool()> busy,
                      std::function<void(const char*)> migrate);
  ~ConnectionLifecycle();

  ConnectionLifecycle(const ConnectionLifecycle&) = delete;
  ConnectionLifecycle& operator=(const ConnectionLifecycle&) = delete;

  void count(obs::MetricId TransportMetrics::*counter,
             std::uint64_t delta = 1) {
    ledger_.count(counter, delta);
  }
  const RetryStats& retry_stats() const noexcept { return retry_stats_; }
  const MigrationStats& migration_stats() const noexcept {
    return migration_stats_;
  }

  // ---- Attempts ----------------------------------------------------------

  /// Arm the per-query deadline when the policy sets one.
  template <typename F>
  void arm_timeout(QueryRetry& q, F&& on_timeout) {
    if (retry_.query_timeout <= 0) return;
    q.timeout_timer = host_.loop().schedule_in(retry_.query_timeout,
                                               std::forward<F>(on_timeout));
  }
  /// Count an expired deadline. True when the query may be re-issued;
  /// false when it must fail (out of budget).
  bool timed_out(const QueryRetry& q);
  /// A successful exchange: the next connection loss backs off from the
  /// initial delay again.
  void succeeded() noexcept { backoff_.reset(); }

  /// The reconnect-and-reissue policy: fail or re-issue every query in
  /// flight. `in_flight` is the client's table of them in issue order,
  /// and is left empty (re-issues may refill it); query_of(entry) is an
  /// entry's Query. `suspect` is the id of the query whose timeout
  /// condemned the connection (kNoQuery: none). Each query either fails
  /// through fail(entry) or, budget permitting, gets a `retry` span and
  /// counter and goes to send(entry): at once after a migration or a
  /// stream timeout, else after a backoff delay drawn once per connection
  /// loss and shared by its re-issues (the entry then moves into the
  /// event, so `send` must capture nothing by reference).
  template <typename Table, typename QueryOf, typename Fail, typename Send>
  void reissue_all(Table& in_flight, ReissueCause cause,
                   std::uint64_t suspect, bool can_retry, QueryOf&& query_of,
                   Fail&& fail, Send&& send);
  /// reissue_all for a std::map from the client's key to a Query record:
  /// a failed query finishes in the ledger, and send(record) re-sends.
  template <typename Key, typename Record, typename Send>
  void reissue_all(std::map<Key, Record>& in_flight, ReissueCause cause,
                   std::uint64_t suspect, bool can_retry, Send&& send) {
    reissue_all(
        in_flight, cause, suspect, can_retry,
        [](auto& entry) -> Query& { return entry.second; },
        [this](auto& entry) { ledger_.fail(entry.second); },
        [send](auto& entry) { send(std::move(entry.second)); });
  }
  /// The deadline of the query under `key` expired (a no-op when it has
  /// finished). Out of budget, it fails. Otherwise the connection is
  /// condemned: teardown(id) discards it and re-issues everything in
  /// flight with this query, id `id`, as the suspect.
  template <typename Key, typename Record, typename Teardown>
  void query_timeout(std::map<Key, Record>& in_flight, const Key& key,
                     Teardown&& teardown) {
    const auto it = in_flight.find(key);
    if (it == in_flight.end()) return;
    if (timed_out(it->second.retry)) {
      teardown(it->second.id);
      return;
    }
    Record record = std::move(it->second);
    in_flight.erase(it);
    ledger_.fail(record);
  }

  // ---- Stall detection ---------------------------------------------------

  /// Start the stall timer unless it runs already (or stalls are off).
  void arm_stall();
  /// Bytes arrived or the connection is gone: stop the stall timer.
  void cancel_stall();

  // ---- Handshakes and migrations -----------------------------------------

  /// Handshake and resumption accounting when a TLS connection comes up;
  /// called once per connection, from its TLS established hook.
  void account_tls(const tlssim::TlsConnection& tls);
  void account_handshake(bool resumed, std::uint64_t bytes,
                         std::uint64_t rtts);
  /// Open the `migrate` span unless one is open already.
  void begin_migrate(const char* reason);
  /// Close the `migrate` span (if open) naming the path that won.
  void end_migrate(const char* winner);
  obs::SpanId migrate_span() const noexcept { return migrate_span_; }
  void record_migration();
  void record_wasted(std::uint64_t bytes);

 private:
  void on_stall();
  static const char* reason(ReissueCause cause) noexcept;

  simnet::Host& host_;
  QueryLedger& ledger_;
  const obs::SpanContext& obs_;  ///< the ledger's
  const RetryPolicy& retry_;
  const MigrationConfig& migration_;
  std::function<bool()> busy_;
  std::function<void(const char*)> migrate_;
  Backoff backoff_;
  RetryStats retry_stats_;
  MigrationStats migration_stats_;
  simnet::EventId stall_timer_;
  std::uint64_t listener_id_ = 0;
  bool ever_connected_ = false;
  obs::SpanId migrate_span_ = 0;
};

/// The connection of the stream client or persistent DoH, and the
/// happy-eyeballs race a migration runs for it: a fresh connection against
/// the current one, the loser's bytes charged to migration_wasted_bytes.
/// `Conn` is default-constructible, movable and false when empty. `Client`
/// supplies open_connection(parent), static live(c) (open or handshaking),
/// static wire_bytes(c) (TCP, both ways; 0 when empty), abort_connection(c)
/// (no local callbacks fire; spans abandoned) and reissue_from(old, cause),
/// which re-issues what was in flight on the aborted `old`.
template <typename Conn, typename Client>
class MigrationRace {
 public:
  MigrationRace(ConnectionLifecycle& lifecycle, simnet::EventLoop& loop,
                Client& client)
      : lifecycle_(lifecycle), loop_(loop), client_(client) {}
  ~MigrationRace() {
    loop_.cancel(promote_);
    loop_.cancel(check_racer_);
  }

  MigrationRace(const MigrationRace&) = delete;
  MigrationRace& operator=(const MigrationRace&) = delete;

  Conn& current() noexcept { return current_; }
  const Conn& current() const noexcept { return current_; }
  Conn& racer() noexcept { return racer_; }

  /// The current connection while it is live, else a live racer (its
  /// handshake is already paid for), else a new one.
  Conn& acquire(obs::SpanId parent) {
    if (Client::live(current_)) {
      lifecycle_.count(&TransportMetrics::conn_reuse);
    } else if (Client::live(racer_)) {
      // Adopted, not promoted: no migration is counted, but the race is
      // over and the fresh path won.
      current_ = std::exchange(racer_, Conn{});
      lifecycle_.end_migrate("fresh");
    } else {
      lifecycle_.count(&TransportMetrics::conn_open);
      current_ = client_.open_connection(parent);
    }
    return current_;
  }

  /// Race only a live connection with queries in flight; drop anything
  /// else so the next attempt reconnects (resuming via the session cache).
  void migrate(const char* reason, bool in_flight) {
    if (racer_ || !current_) return;
    lifecycle_.begin_migrate(reason);
    if (!in_flight || !Client::live(current_)) {
      lifecycle_.record_migration();
      lifecycle_.end_migrate("fresh");
      client_.abort_connection(current_);
      client_.reissue_from(current_, ReissueCause::kConnectionLoss);
      return;
    }
    lifecycle_.count(&TransportMetrics::conn_open);
    baseline_ = Client::wire_bytes(current_);
    racer_ready_ = false;
    racer_ = client_.open_connection(lifecycle_.migrate_span());
  }

  // The racer's outcome is acted on one (zero-delay) event later: it
  // replaces connections, which must not happen inside their callbacks.
  void racer_established() {
    racer_ready_ = true;
    loop_.cancel(promote_);
    promote_ = loop_.schedule_in(0, [this]() { promote(); });
  }
  void racer_failed() {
    loop_.cancel(check_racer_);
    check_racer_ = loop_.schedule_in(0, [this]() {
      if (!Client::live(racer_)) drop_racer();
    });
  }

  /// The old path won (a response arrived on it), or the racer died.
  void drop_racer() {
    if (!racer_) return;
    Conn racer = std::exchange(racer_, Conn{});
    client_.abort_connection(racer);
    lifecycle_.record_wasted(Client::wire_bytes(racer));
    lifecycle_.end_migrate("old");
  }

 private:
  void promote() {
    if (!racer_ready_ || !Client::live(racer_)) return;  // adopted or died
    // What the old connection moved since the race began bought nothing.
    const std::uint64_t moved = Client::wire_bytes(current_);
    lifecycle_.record_wasted(moved > baseline_ ? moved - baseline_ : 0);
    lifecycle_.record_migration();
    Conn old = std::exchange(current_, std::exchange(racer_, Conn{}));
    lifecycle_.end_migrate("fresh");
    if (!old) return;
    client_.abort_connection(old);
    client_.reissue_from(old, ReissueCause::kMigration);
  }

  ConnectionLifecycle& lifecycle_;
  simnet::EventLoop& loop_;
  Client& client_;
  Conn current_;
  Conn racer_;
  std::uint64_t baseline_ = 0;  ///< old connection's bytes at race start
  bool racer_ready_ = false;    ///< the racer's handshake completed
  simnet::EventId promote_;
  simnet::EventId check_racer_;
};

template <typename Table, typename QueryOf, typename Fail, typename Send>
void ConnectionLifecycle::reissue_all(Table& in_flight, ReissueCause cause,
                                      std::uint64_t suspect, bool can_retry,
                                      QueryOf&& query_of, Fail&& fail,
                                      Send&& send) {
  Table victims = std::exchange(in_flight, Table{});
  can_retry = can_retry && retry_.max_retries > 0;
  const bool backs_off = cause == ReissueCause::kConnectionLoss ||
                         cause == ReissueCause::kTimeoutTeardown;
  std::optional<simnet::TimeUs> delay;
  const auto one = [&](auto& entry) {
    Query& q = query_of(entry);
    host_.loop().cancel(q.retry.timeout_timer);
    // A timeout teardown charges only the suspect: the rest were merely
    // queued behind it and are re-issued for free.
    const bool charge = cause != ReissueCause::kTimeoutTeardown ||
                        q.id == suspect;
    if (!can_retry || (charge && q.retry.retries_left <= 0)) {
      if (can_retry) ++retry_stats_.budget_exhausted;
      fail(entry);
      return;
    }
    if (backs_off && !delay) {
      delay = backoff_.next();
      ++retry_stats_.reconnects;
      count(&TransportMetrics::reconnects);
    }
    if (charge) --q.retry.retries_left;
    ++retry_stats_.retried_queries;
    ledger_.record_retry(q.retry, reason(cause));
    if (!delay) {
      send(entry);
      return;
    }
    host_.loop().schedule_in(
        *delay, [send, entry = std::move(entry)]() mutable { send(entry); });
  };
  typename Table::value_type* last = nullptr;
  for (auto& entry : victims) {
    if (query_of(entry).id == suspect) {
      last = &entry;
    } else {
      one(entry);
    }
  }
  if (last != nullptr) one(*last);
}

}  // namespace dohperf::core
