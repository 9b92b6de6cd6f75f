// Connection migration for the encrypted stateful DNS transports: DoT and
// DoH race a fresh connection, DoQ migrates its QUIC connection in place.
// Plain DNS over TCP is fail-fast and takes no MigrationConfig.
//
// The paper's cost finding is that DoH/DoT amortize their connection-setup
// tax over a long-lived connection — which network churn (NAT rebind,
// Wi-Fi -> LTE handover, interface flap) cuts short. MigrationConfig has a
// single switch; with it on, a client runs all of the following (the
// shared parts live in core/lifecycle.hpp):
//   * detection — OS-visible change notifications (Host listeners) plus a
//     400 ms stall timer for the silent NAT rebinds the OS never reports
//     (ConnectionLifecycle);
//   * recovery  — DoT and DoH race a fresh connection against the stalled
//     one (MigrationRace; the loser's bytes are charged to
//     migration_wasted_bytes), with the TLS session cache making the
//     re-handshake a 1-RTT resumption; DoQ validates the new path instead;
//   * re-issue  — in-flight queries move to the winning connection under
//     their existing RetryPolicy budgets.
#pragma once

#include <cstdint>

#include "tlssim/types.hpp"

namespace dohperf::core {

struct MigrationConfig {
  /// Master switch: off keeps the legacy behaviour byte-for-byte (churn is
  /// only ever discovered through query timeouts).
  bool enabled = false;
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
