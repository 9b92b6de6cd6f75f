// Connection migration for the encrypted stateful DNS transports: DoT and
// DoH race a fresh connection, DoQ migrates its QUIC connection in place.
// Plain DNS over TCP is fail-fast and takes no MigrationConfig.
//
// The paper's cost finding is that DoH/DoT amortize their connection-setup
// tax over a long-lived connection — which network churn (NAT rebind,
// Wi-Fi -> LTE handover, interface flap) cuts short. This header holds the
// shared policy knobs and accounting for the clients' migration machinery:
//   * detection — OS-visible change notifications (Host listeners) plus a
//     stall timer for the silent NAT rebinds the OS never reports (both in
//     ConnectionLifecycle, core/lifecycle.hpp);
//   * recovery  — happy-eyeballs racing of a fresh connection against the
//     stalled one (loser's bytes charged to migration_wasted_bytes), with
//     the TLS session cache making the re-handshake a 1-RTT resumption;
//   * re-issue  — in-flight queries move to the winning connection under
//     their existing RetryPolicy budgets.
#pragma once

#include <cstdint>

#include "simnet/time.hpp"
#include "tlssim/types.hpp"

namespace dohperf::core {

struct MigrationConfig {
  /// Master switch: off keeps the legacy behaviour byte-for-byte (churn is
  /// only ever discovered through query timeouts).
  bool enabled = false;
  /// Subscribe to the host's OS-visible change events (profile swap, flap).
  /// Silent NAT rebinds are never delivered this way; the stall timer is
  /// what catches those.
  bool react_to_host_events = true;
  /// With queries in flight and no response for this long, treat the path
  /// as suspect and start a migration. 0 disables stall detection.
  simnet::TimeUs stall_timeout = simnet::ms(400);
  /// Race a fresh connection against the stalled one (loser torn down and
  /// charged to migration_wasted_bytes). When false, migration tears the
  /// old connection down immediately and reconnects — simpler, but a false
  /// stall alarm then kills a healthy connection.
  bool race = true;
};

/// Per-client migration and handshake-amortization accounting. Mirrored
/// into the metric contract as client.<t>.migrations /
/// client.<t>.migration_wasted_bytes / client.<t>.resumed_handshakes.
struct MigrationStats {
  std::uint64_t migrations = 0;             ///< completed path switches
  std::uint64_t migration_wasted_bytes = 0; ///< loser-side race traffic
  std::uint64_t resumed_handshakes = 0;     ///< ticket/PSK resumptions
  std::uint64_t full_handshakes = 0;
  std::uint64_t handshake_bytes = 0;  ///< handshake wire bytes, both dirs
  std::uint64_t handshake_rtts = 0;   ///< modelled round trips paid
};

/// Modelled TLS handshake round trips (on top of the transport's own):
/// TLS 1.3 is 1-RTT either way; TLS 1.2 is 2-RTT full, 1-RTT resumed.
inline std::uint64_t tls_handshake_rtts(tlssim::TlsVersion version,
                                        bool resumed) noexcept {
  if (version == tlssim::TlsVersion::kTls13) return 1;
  return resumed ? 1 : 2;
}

}  // namespace dohperf::core
