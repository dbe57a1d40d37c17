#include "simnet/machine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string_view>
#include <thread>

#include "simnet/fiber.hpp"
#include "util/error.hpp"
#include "util/exec_local.hpp"

namespace agcm::simnet {

void RankContext::send_bytes(int dst, std::int64_t tag,
                             std::span<const std::byte> bytes) {
  Buffer payload = acquire_buffer(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(payload.data(), bytes.data(), bytes.size());
  }
  send_bytes(dst, tag, std::move(payload));
}

void RankContext::send_bytes(int dst, std::int64_t tag, Buffer&& payload) {
  if (dst < 0 || dst >= nranks()) {
    throw CommError("send to invalid rank " + std::to_string(dst));
  }
  Packet packet;
  packet.depart_time = charge_send(payload.size());
  packet.payload = std::move(payload);
  packet.src = rank_;
  packet.tag = tag;
  network_->mailbox(dst).push(std::move(packet));
}

Buffer RankContext::recv_bytes(int src, std::int64_t tag) {
  if (src < 0 || src >= nranks()) {
    throw CommError("recv from invalid rank " + std::to_string(src));
  }
  Packet packet =
      network_->mailbox(rank_).pop(src, tag, network_->recv_timeout_ms());
  charge_recv(packet.depart_time, packet.payload.size());
  return std::move(packet.payload);
}

double RunResult::makespan() const {
  if (finish_times.empty()) return 0.0;
  return *std::max_element(finish_times.begin(), finish_times.end());
}

SimBackend Machine::default_backend() {
#if AGCM_SIMNET_HAS_FIBERS
  const char* env = std::getenv("AGCM_SIMNET_BACKEND");
  if (env != nullptr && std::string_view(env) == "threads")
    return SimBackend::kThreads;
  return SimBackend::kFibers;
#else
  return SimBackend::kThreads;
#endif
}

void Machine::run_threads(int nranks,
                          const std::function<void(RankContext&)>& program,
                          std::vector<std::unique_ptr<RankContext>>& contexts) {
  std::mutex error_mutex;
  std::exception_ptr first_error;

  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back([&, r] {
        // Per-rank local storage (workspaces) lives on an explicit slot
        // under both backends, so the thread backend matches the fiber
        // scheduler's workspace lifetime exactly (one per rank per run).
        util::ExecSlot slot;
        util::ExecSlot::Scope scope(&slot);
        try {
          program(*contexts[static_cast<std::size_t>(r)]);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
  }  // jthreads join here

  if (first_error) std::rethrow_exception(first_error);
}

RunResult Machine::run(int nranks,
                       const std::function<void(RankContext&)>& program) {
  check_config(nranks > 0, "Machine::run requires nranks > 0");
  Network network(nranks);
  network.set_recv_timeout_ms(recv_timeout_ms_);

  std::vector<std::unique_ptr<RankContext>> contexts;
  contexts.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    contexts.push_back(std::make_unique<RankContext>(r, network, profile_));
  }

#if AGCM_SIMNET_HAS_FIBERS
  if (backend_ == SimBackend::kFibers) {
    run_fibers(
        nranks,
        [&](int r) { program(*contexts[static_cast<std::size_t>(r)]); },
        workers_);
  } else {
    run_threads(nranks, program, contexts);
  }
#else
  run_threads(nranks, program, contexts);
#endif

  return collect(network, contexts);
}

RunResult Machine::collect(
    Network& network,
    const std::vector<std::unique_ptr<RankContext>>& contexts) {
  RunResult result;
  result.finish_times.reserve(contexts.size());
  result.breakdowns.reserve(contexts.size());
  result.traffic.reserve(contexts.size());
  Traffic sum;
  for (const auto& ctx : contexts) {
    result.finish_times.push_back(ctx->clock().now());
    result.breakdowns.push_back(ctx->clock().breakdown());
    result.traffic.push_back(ctx->traffic());
    sum += ctx->traffic();
  }
  result.total_messages = sum.messages_sent;
  result.total_bytes = sum.bytes_sent;
  result.pool_reuses = network.pool().reuses();
  result.pool_misses = network.pool().misses();
  result.live_channels = network.live_channels();
  result.mailbox_deliveries = network.mailbox_deliveries();
  result.rendezvous_blocks = network.rendezvous_blocks();
  return result;
}

}  // namespace agcm::simnet
