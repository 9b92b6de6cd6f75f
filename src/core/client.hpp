// The common resolver-client interface: every DNS transport in this library
// (UDP, TCP, DoT, DoH/h1, DoH/h2, DoQ) resolves names through the same API,
// which is what lets the experiments and the browser model swap transports.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cost.hpp"
#include "dns/message.hpp"
#include "simnet/time.hpp"

namespace dohperf::core {

struct ResolutionResult {
  bool success = false;
  dns::Message response;
  simnet::TimeUs sent_at = 0;       ///< when resolve() was called
  simnet::TimeUs completed_at = 0;  ///< when the reply was fully parsed
  CostReport cost;                  ///< finalized lazily; see each client

  /// "Resolution time is the time it takes the application to receive and
  /// fully parse a reply" (§3).
  simnet::TimeUs resolution_time() const noexcept {
    return completed_at - sent_at;
  }
};

/// A definitive answer: transport success with NOERROR or NXDOMAIN
/// (RFC 8767 §4). SERVFAIL, REFUSED, FORMERR and NOTIMP say the resolver
/// could not answer, not what the name is, so the policy clients neither
/// cache them nor surface them while another source (a stale copy, the
/// fallback, the hedge, the next resolver) may still answer.
inline bool definitive(const ResolutionResult& r) noexcept {
  const dns::Rcode rcode = r.response.flags.rcode;
  return r.success &&
         (rcode == dns::Rcode::kNoError || rcode == dns::Rcode::kNxDomain);
}

using ResolveCallback = std::function<void(const ResolutionResult&)>;

class ResolverClient {
 public:
  virtual ~ResolverClient() = default;

  /// Resolve asynchronously; the callback fires when the reply has been
  /// received and parsed (or the query failed). Returns a query id usable
  /// with result().
  virtual std::uint64_t resolve(const dns::Name& name, dns::RType type,
                                ResolveCallback callback) = 0;

  /// The recorded result for a query id. Costs for connection-oriented
  /// transports are finalized once the event loop has drained (teardown
  /// packets included). The reference stays valid for the client's
  /// lifetime, across resolve() calls made from a callback too: the
  /// callback's argument is this same slot.
  virtual const ResolutionResult& result(std::uint64_t id) const = 0;

  virtual std::size_t completed() const = 0;
};

/// The result slots of one client, indexed by query id, and how many of
/// its queries have completed. Slots live in segments of 16, 32, 64, ...
/// results that are never reallocated, so a slot never moves once created
/// and a reference from at() stays valid for the store's lifetime. A slot
/// is constructed when it is opened, so a segment's unused tail costs no
/// pages.
class ResultStore {
 public:
  ResultStore() = default;
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;
  ~ResultStore() {
    for (std::uint64_t id = 0; id < size_; ++id) std::destroy_at(&at(id));
  }

  /// Create the slot of the next query id, sent at `sent_at`; returns the
  /// id.
  std::uint64_t open(simnet::TimeUs sent_at) {
    const auto [segment, offset] = locate(size_);
    if (segment == segments_.size()) {
      segments_.push_back(std::make_unique<Slot[]>(kFirstSegment << segment));
    }
    std::construct_at(&segments_[segment][offset].result)->sent_at = sent_at;
    return size_++;
  }

  const ResolutionResult& at(std::uint64_t id) const {
    if (id >= size_) throw std::out_of_range("ResultStore: unknown query id");
    const auto [segment, offset] = locate(id);
    return segments_[segment][offset].result;
  }
  ResolutionResult& at(std::uint64_t id) {
    return const_cast<ResolutionResult&>(std::as_const(*this).at(id));
  }

  std::uint64_t size() const noexcept { return size_; }
  std::size_t completed() const noexcept { return completed_; }
  void mark_completed() noexcept { ++completed_; }

 private:
  static constexpr std::uint64_t kFirstSegment = 16;

  /// Storage for one result, constructed by open() and destroyed by the
  /// store's destructor.
  union Slot {
    Slot() {}
    ~Slot() {}
    ResolutionResult result;
  };

  /// (segment, offset) of a query id: segment k holds ids
  /// 16 * (2^k - 1) .. 16 * (2^(k+1) - 1) - 1.
  static std::pair<std::size_t, std::size_t> locate(std::uint64_t id) {
    const std::uint64_t n = id + kFirstSegment;
    const std::size_t segment = static_cast<std::size_t>(
        std::bit_width(n) - std::bit_width(kFirstSegment));
    return {segment, static_cast<std::size_t>(n - (kFirstSegment << segment))};
  }

  std::vector<std::unique_ptr<Slot[]>> segments_;
  std::uint64_t size_ = 0;
  std::size_t completed_ = 0;
};

}  // namespace dohperf::core
