// The virtual multicomputer: runs an SPMD program with one rank *fiber* per
// virtual node on a fixed worker pool (M:N scheduling — see simnet/fiber.hpp
// and docs/simnet.md), with the original thread-per-rank launcher kept as a
// selectable fallback backend. Real data moves between ranks (results are
// verifiable); the machine profile only prices the operations on each rank's
// virtual clock, so both backends produce bit-identical virtual times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "simnet/machine_profile.hpp"
#include "simnet/network.hpp"
#include "simnet/virtual_clock.hpp"

namespace agcm::simnet {

/// One rank's traffic ledger: the messages and payload bytes it has sent
/// and received since launch. It is written by the owning rank (send_bytes,
/// recv_bytes), or by an all-to-all's replay while the rank is parked in
/// that rendezvous (see Rendezvous), so it needs no atomics and no lock.
/// The traffic of a window is the difference of two readings taken by the
/// rank itself; nothing is ever reset.
struct Traffic {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_recv = 0;
  std::uint64_t bytes_recv = 0;

  Traffic& operator+=(const Traffic& other) {
    messages_sent += other.messages_sent;
    bytes_sent += other.bytes_sent;
    messages_recv += other.messages_recv;
    bytes_recv += other.bytes_recv;
    return *this;
  }
  friend Traffic operator-(Traffic a, const Traffic& b) {
    a.messages_sent -= b.messages_sent;
    a.bytes_sent -= b.bytes_sent;
    a.messages_recv -= b.messages_recv;
    a.bytes_recv -= b.bytes_recv;
    return a;
  }
  bool operator==(const Traffic&) const = default;
};

/// Everything one rank of an SPMD program can touch. Byte-level transport;
/// the typed interface is comm::Communicator.
class RankContext {
 public:
  RankContext(int rank, Network& network, const MachineProfile& profile)
      : rank_(rank), network_(&network), clock_(profile) {}

  RankContext(const RankContext&) = delete;
  RankContext& operator=(const RankContext&) = delete;

  int rank() const { return rank_; }
  int nranks() const { return network_->nranks(); }
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  Network& network() { return *network_; }
  /// This rank's ledger. Read it from the rank itself, or after the run.
  const Traffic& traffic() const { return traffic_; }

  /// Borrows a payload buffer of `bytes` logical size from the network's
  /// recycling pool — the zero-copy send path packs directly into it.
  Buffer acquire_buffer(std::size_t bytes) {
    return network_->pool().acquire(bytes);
  }

  /// Sends raw bytes to `dst` with `tag`; charges sender overhead and
  /// stamps the packet with the virtual departure time. Copies once, into
  /// pooled storage (allocation-free after pool warm-up).
  void send_bytes(int dst, std::int64_t tag, std::span<const std::byte> bytes);

  /// Zero-copy overload: the pooled buffer is moved into the packet, so
  /// callers that packed via acquire_buffer() inject without any copy.
  void send_bytes(int dst, std::int64_t tag, Buffer&& payload);

  /// Blocking receive of the next packet on channel (src, tag). Advances the
  /// virtual clock to the message arrival (wire latency + serialisation)
  /// and returns the pooled payload directly — no copy-out; the storage
  /// recycles into the pool when the returned Buffer dies.
  Buffer recv_bytes(int src, std::int64_t tag);

  /// The virtual cost of one message, without the message: send_bytes and
  /// recv_bytes charge through these, and an all-to-all's rendezvous
  /// replays its schedule with them. charge_send charges the sender
  /// overhead, counts the message and returns its departure time;
  /// charge_recv counts it and applies its arrival.
  double charge_send(std::size_t bytes) {
    clock_.charge_send_overhead();
    ++traffic_.messages_sent;
    traffic_.bytes_sent += bytes;
    return clock_.now();
  }
  void charge_recv(double depart_time, std::size_t bytes) {
    ++traffic_.messages_recv;
    traffic_.bytes_recv += bytes;
    clock_.apply_arrival(depart_time + clock_.profile().transfer_time(
                                           static_cast<double>(bytes)));
  }

 private:
  int rank_;
  Network* network_;
  VirtualClock clock_;
  Traffic traffic_;
};

/// Result of one SPMD run: per-rank virtual clocks and traffic ledgers.
struct RunResult {
  std::vector<double> finish_times;          ///< virtual now() at program end
  std::vector<TimeBreakdown> breakdowns;     ///< per-rank accounting
  std::vector<Traffic> traffic;              ///< per-rank ledgers at program end
  std::uint64_t total_messages = 0;          ///< sum of traffic[r].messages_sent
  std::uint64_t total_bytes = 0;             ///< sum of traffic[r].bytes_sent

  // Host-only diagnostics of the transport machinery. The pool counts
  // depend on how the host scheduled the ranks, so none of these enters a
  // virtual result or a byte-compared artefact.
  std::uint64_t pool_reuses = 0;    ///< BufferPool acquires served from the freelist
  std::uint64_t pool_misses = 0;    ///< BufferPool acquires that allocated
  std::uint64_t live_channels = 0;  ///< channels created, summed over mailboxes
  /// Messages that went through a mailbox, and all-to-all blocks charged
  /// by a rendezvous replay. Together they are every ledger message:
  /// mailbox_deliveries + rendezvous_blocks == total_messages.
  std::uint64_t mailbox_deliveries = 0;
  std::uint64_t rendezvous_blocks = 0;

  /// Virtual makespan: the slowest rank's finish time.
  double makespan() const;
};

/// How Machine::run executes rank programs on the host.
enum class SimBackend {
  kFibers,   ///< M:N fiber scheduler: worker pool ~ hardware concurrency,
             ///< one stackful coroutine per rank (default; scales to
             ///< thousands of ranks)
  kThreads,  ///< one OS thread per rank (original launcher; fallback, and
             ///< the reference for virtual-time bit-equality)
};

/// Launches `nranks` instances of `program` (one rank fiber each, scheduled
/// on a fixed worker pool — or one OS thread each under the kThreads
/// fallback), waits for all of them and returns the virtual-time
/// accounting. Exceptions thrown by any rank are rethrown here (first one
/// wins) after all ranks have stopped.
class Machine {
 public:
  explicit Machine(MachineProfile profile)
      : profile_(std::move(profile)), backend_(default_backend()) {}

  const MachineProfile& profile() const { return profile_; }

  /// Deadlock-detection timeout for blocking receives (real milliseconds).
  /// Only meaningful under the kThreads backend; the fiber scheduler
  /// detects deadlock by quiescence (all ranks parked) instead of by
  /// wall-clock, so it reports immediately and this knob is unused there.
  void set_recv_timeout_ms(int ms) { recv_timeout_ms_ = ms; }

  /// Overrides the execution backend for this machine. The process-wide
  /// default is kFibers, or the AGCM_SIMNET_BACKEND environment variable
  /// ("fibers" | "threads") when set.
  void set_backend(SimBackend backend) { backend_ = backend; }
  SimBackend backend() const { return backend_; }

  /// Worker-pool size for the fiber backend; 0 (default) resolves to
  /// min(nranks, hardware_concurrency), or AGCM_SIMNET_WORKERS when set.
  void set_workers(int workers) { workers_ = workers; }

  /// The backend a fresh Machine starts with (environment-resolved).
  static SimBackend default_backend();

  RunResult run(int nranks, const std::function<void(RankContext&)>& program);

 private:
  RunResult collect(Network& network,
                    const std::vector<std::unique_ptr<RankContext>>& contexts);
  void run_threads(int nranks,
                   const std::function<void(RankContext&)>& program,
                   std::vector<std::unique_ptr<RankContext>>& contexts);

  MachineProfile profile_;
  SimBackend backend_;
  int recv_timeout_ms_ = 60'000;
  int workers_ = 0;
};

}  // namespace agcm::simnet
