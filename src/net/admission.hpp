// Connection-level admission control for net::Server.
//
// The engine already enforces budgets *per request* (query budgets,
// deadlines); this layer enforces them *per connection* — the tenant unit
// of the socket front end — so an overloaded or abusive client degrades
// into typed rejections instead of collapsing the server:
//
//   - in-flight caps (per connection and server-wide) bound the audit work
//     a connection can have outstanding; past the cap a request is refused
//     with kBudgetExhausted *before* its body is even decoded, which is
//     what keeps rejection cheap exactly when the server is busiest;
//   - request / byte budgets meter a connection's lifetime usage, the
//     per-tenant analogue of a request's query budget;
//   - every rejection is tallied so the stats endpoint can report overload
//     behavior (NetServer.OverloadRejectsTypedWhileAcceptedRequestsComplete
//     pins it; benchmark/'s tcp_overload workload measures it).
//
// Admission decisions run on the IO threads and completions release slots
// from the engine's serve workers, so everything here is atomic; counters
// are pure tallies read by the stats endpoint.
#pragma once

#include <atomic>
#include <cstdint>

#include "api/status.hpp"
#include "net/messages.hpp"

namespace bprom::net {

struct AdmissionConfig {
  /// Max audits a single connection may have outstanding (0 = unlimited).
  std::size_t max_in_flight_per_connection = 8;
  /// Max audits outstanding across all connections (0 = unlimited).
  std::size_t max_in_flight_total = 64;
  /// Lifetime audit-request budget per connection (0 = unlimited).
  std::uint64_t max_requests_per_connection = 0;
  /// Lifetime received-byte budget per connection (0 = unlimited).
  std::uint64_t max_bytes_per_connection = 0;
};

class AdmissionControl {
 public:
  explicit AdmissionControl(AdmissionConfig config) : config_(config) {}

  AdmissionControl(const AdmissionControl&) = delete;
  AdmissionControl& operator=(const AdmissionControl&) = delete;

  /// Admit or reject one audit request given the connection's tallies
  /// (`in_flight` outstanding audits, `requests_seen` audits admitted so
  /// far including this one, `bytes_seen` wire bytes received so far).
  /// OK acquires a server-wide in-flight slot the completion must release.
  api::Status admit(std::size_t in_flight, std::uint64_t requests_seen,
                    std::uint64_t bytes_seen);

  /// Release the server-wide slot acquired by a successful admit().
  void release();

  /// Audits currently outstanding server-wide.
  [[nodiscard]] std::size_t total_in_flight() const {
    // relaxed: a monitoring read; admission correctness does not hang off
    // this value (admit() re-checks under CAS).
    return total_in_flight_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t admitted() const {
    // relaxed: statistics tally, read for the stats endpoint snapshot.
    return admitted_.load(std::memory_order_relaxed);
  }

  /// Fold this layer's tallies into a stats response.
  void fill(ServerCounters* counters) const;

 private:
  AdmissionConfig config_;
  std::atomic<std::size_t> total_in_flight_{0};
  // Rejection tallies, one per typed cause (stats endpoint reads them).
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_in_flight_{0};
  std::atomic<std::uint64_t> rejected_total_in_flight_{0};
  std::atomic<std::uint64_t> rejected_request_budget_{0};
  std::atomic<std::uint64_t> rejected_byte_budget_{0};
};

}  // namespace bprom::net
