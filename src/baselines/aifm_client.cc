#include "baselines/aifm_client.h"

namespace pulse::baselines {

AifmClient::AifmClient(sim::EventQueue& queue, RpcRuntime& rpc,
                       const AifmConfig& config)
    : queue_(queue), rpc_(rpc), config_(config),
      cache_(config.cache_bytes)
{
}

void
AifmClient::submit(offload::Operation&& op)
{
    stats_.operations.increment();
    const bool cacheable = op.object_bytes > 0;
    if (cacheable && cache_.access(op.object_id)) {
        // Local object dereference; completion carries no scratch (the
        // cached object is already client-resident).
        const Time start = queue_.now();
        queue_.schedule_after(
            op.init_cpu_time + config_.hit_latency,
            [start, done = std::move(op.done), this] {
                offload::Completion completion;
                completion.status = isa::TraversalStatus::kDone;
                completion.offloaded = false;
                completion.latency = queue_.now() - start;
                if (done) {
                    done(std::move(completion));
                }
            });
        return;
    }
    const std::uint64_t object_id = op.object_id;
    const Bytes object_bytes = op.object_bytes;
    offload::CompletionFn user_done = std::move(op.done);
    op.done = [this, object_id, object_bytes,
               user_done = std::move(user_done)](
                  offload::Completion&& completion) mutable {
        if (object_bytes > 0 &&
            completion.status == isa::TraversalStatus::kDone) {
            cache_.fill(object_id, object_bytes);
        }
        if (user_done) {
            queue_.schedule_after(
                config_.install_latency,
                [user_done = std::move(user_done),
                 completion = std::move(completion)]() mutable {
                    user_done(std::move(completion));
                });
        }
    };
    rpc_.submit(std::move(op));
}

}  // namespace pulse::baselines
