// The QUIC connection: combined transport+crypto handshake in one round
// trip (CRYPTO frames carrying the simulated TLS 1.3 messages), independent
// bidirectional streams, packet-number-based acknowledgements and
// PTO-driven loss recovery.
//
// The transport is injected as a datagram-send function so the same class
// serves the client (own UDP socket) and the server (socket shared across
// connections, demultiplexed by connection id in QuicServer).
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>

#include "quicsim/packet.hpp"
#include "simnet/event_loop.hpp"
#include "tlssim/connection.hpp"  // ClientConfig/ServerConfig + handshake msgs

namespace dohperf::quicsim {

struct QuicConnectionConfig {
  simnet::TimeUs pto_initial = simnet::ms(200);  ///< probe timeout
  simnet::TimeUs pto_max = simnet::seconds(10);
  /// Server-side (QuicServer): accept connection migration — when a known
  /// connection id arrives from a new address, switch the return path to
  /// it and validate with a PATH_CHALLENGE. Off by default: the legacy
  /// server keeps replying to the address that opened the connection, so a
  /// re-addressed client is stranded until it reconnects.
  bool allow_migration = false;
};

class QuicConnection {
 public:
  using DatagramSender = std::function<void(Bytes)>;
  using StreamDataHandler =
      std::function<void(std::uint64_t stream_id,
                         std::span<const std::uint8_t> data, bool fin)>;

  enum class Role { kClient, kServer };

  /// Client role: starts the handshake immediately.
  QuicConnection(simnet::EventLoop& loop, DatagramSender sender,
                 std::uint64_t connection_id, tlssim::ClientConfig tls,
                 QuicConnectionConfig config = {});

  /// Server role: `tls` must outlive the connection.
  QuicConnection(simnet::EventLoop& loop, DatagramSender sender,
                 std::uint64_t connection_id,
                 const tlssim::ServerConfig* tls,
                 QuicConnectionConfig config = {});

  ~QuicConnection();

  QuicConnection(const QuicConnection&) = delete;
  QuicConnection& operator=(const QuicConnection&) = delete;

  void set_on_established(std::function<void()> cb) {
    on_established_ = std::move(cb);
  }
  void set_on_stream_data(StreamDataHandler cb) {
    on_stream_data_ = std::move(cb);
  }
  void set_on_closed(std::function<void()> cb) { on_closed_ = std::move(cb); }
  /// Fired when a PATH_RESPONSE matches an outstanding challenge we sent —
  /// the new path is validated and the migration is complete on this side.
  void set_on_path_validated(std::function<void()> cb) {
    on_path_validated_ = std::move(cb);
  }

  /// Replace the datagram transport mid-connection (connection migration:
  /// the peer moved; subsequent packets — including PTO retransmits of
  /// everything in flight — go out the new path).
  void set_sender(DatagramSender sender) { sender_ = std::move(sender); }

  /// RFC 9000 §8.2: start path validation — send a PATH_CHALLENGE with a
  /// fresh deterministic token on the current path. Ack-eliciting, so loss
  /// is repaired by the normal PTO machinery.
  void probe_path();

  /// Feed one received UDP payload into the connection.
  void handle_datagram(std::span<const std::uint8_t> payload);

  /// Open a new bidirectional stream (client: 0, 4, 8, ...; server: 1, 5...).
  std::uint64_t open_stream();

  /// Send stream data (queued until established). `fin` half-closes it.
  void send_stream(std::uint64_t stream_id, Bytes data, bool fin);

  void close(std::uint64_t error_code = 0);

  bool established() const noexcept { return established_; }
  bool closed() const noexcept { return closed_; }
  std::uint64_t connection_id() const noexcept { return connection_id_; }
  const QuicCounters& counters() const noexcept { return counters_; }
  const std::string& alpn() const noexcept { return alpn_; }
  /// Streams still holding receive or send state (finished ones are
  /// pruned, so a long-lived connection stays bounded).
  std::size_t stream_states() const noexcept {
    return rx_streams_.size() + tx_offsets_.size();
  }

 private:
  struct RxStream {
    std::map<std::uint64_t, Bytes> segments;  ///< offset -> data
    std::uint64_t delivered = 0;
    std::uint64_t fin_offset = std::uint64_t(-1);
  };
  using RxStreams = std::map<std::uint64_t, RxStream>;

  void start_client_handshake();
  void send_packet(std::vector<Frame> frames, bool long_header);
  void send_frame(Frame frame, bool long_header);
  void handle_frame(Frame& frame);
  void handle_crypto(const CryptoFrame& frame);
  void process_crypto_buffer();
  void handle_handshake_message(const tlssim::HandshakeMessage& msg);
  /// The receive side of `stream_id`, opened on first use; end() once it
  /// has finished (or for an id no sane peer would use).
  RxStreams::iterator rx_stream(std::uint64_t stream_id);
  void handle_stream(StreamFrame& frame);
  void deliver_stream(RxStreams::iterator it);
  void schedule_ack();
  void flush_acks();
  void arm_pto();
  void on_pto();
  void become_established();
  void flush_pending_streams();

  simnet::EventLoop& loop_;
  DatagramSender sender_;
  std::uint64_t connection_id_;
  Role role_;
  tlssim::ClientConfig client_tls_;
  const tlssim::ServerConfig* server_tls_ = nullptr;
  QuicConnectionConfig config_;
  QuicCounters counters_;

  std::function<void()> on_established_;
  StreamDataHandler on_stream_data_;
  std::function<void()> on_closed_;
  std::function<void()> on_path_validated_;

  bool established_ = false;
  bool closed_ = false;
  bool handshake_done_sent_ = false;
  std::string alpn_;

  std::uint64_t next_packet_number_ = 0;
  std::uint64_t next_stream_id_;
  // Path validation: the token of the newest challenge we sent; any match
  // validates (stale responses to earlier probes are ignored).
  std::uint64_t next_path_token_ = 0;
  std::uint64_t outstanding_path_token_ = 0;

  // Crypto stream reassembly.
  Bytes crypto_rx_;
  std::uint64_t crypto_rx_consumed_ = 0;
  std::uint64_t crypto_tx_offset_ = 0;

  // Streams. Only unfinished ones hold state: a receive side is pruned once
  // its FIN is delivered, a send side once its FIN is sent. rx_next_ is
  // the guard that keeps a pruned stream from reopening: per stream type
  // (id % 4), every id below it has been opened, so one missing from
  // rx_streams_ has finished and a late duplicate frame for it is dropped.
  RxStreams rx_streams_;
  std::array<std::uint64_t, 4> rx_next_{0, 1, 2, 3};
  struct PendingStreamWrite {
    std::uint64_t stream_id;
    Bytes data;
    bool fin;
  };
  std::vector<PendingStreamWrite> pending_writes_;
  std::map<std::uint64_t, std::uint64_t> tx_offsets_;

  // Acknowledgement + loss recovery.
  std::vector<std::uint64_t> ack_pending_;
  bool ack_scheduled_ = false;
  struct SentPacket {
    Packet packet;
    simnet::TimeUs sent_at = 0;
  };
  std::map<std::uint64_t, SentPacket> unacked_;
  simnet::EventId pto_timer_;
  int pto_backoff_ = 0;
  // RFC 9002-style RTT estimation driving the probe timeout.
  double srtt_us_ = 0.0;
  double rttvar_us_ = 0.0;
  simnet::TimeUs current_pto() const noexcept;
};

}  // namespace dohperf::quicsim
