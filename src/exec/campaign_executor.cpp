#include "exec/campaign_executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace s4e::exec {

CampaignExecutor::CampaignExecutor(unsigned jobs)
    // A negative job count cast to unsigned would ask for billions of
    // threads; no host benefits from more than 4096 lanes anyway.
    : jobs_(jobs == 0 ? std::max(1u, std::thread::hardware_concurrency())
                      : std::min(jobs, 4096u)) {}

void CampaignExecutor::run_affine(
    std::size_t count, const std::function<void(unsigned, std::size_t)>& job) {
  if (count == 0) return;
  if (jobs_ <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(0, i);
    return;
  }
  const unsigned lanes =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(lanes);
  {
    // jthreads join on destruction, also when starting a later lane throws.
    std::vector<std::jthread> threads;
    threads.reserve(lanes);
    for (unsigned lane = 0; lane < lanes; ++lane) {
      threads.emplace_back([&job, &next, &errors, lane, count] {
        try {
          for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            job(lane, i);
          }
        } catch (...) {
          errors[lane] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace s4e::exec
