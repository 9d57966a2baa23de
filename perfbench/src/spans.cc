#include "spans.h"

#include <cstdio>

namespace perfbench {

const char*
host_layer_name(HostLayer layer)
{
    switch (layer) {
      case HostLayer::kBuild: return "core.build";
      case HostLayer::kLoad: return "ds.load";
      case HostLayer::kWarmup: return "bench.warmup";
      case HostLayer::kDrain: return "sim.drain";
      case HostLayer::kGen: return "workloads.gen";
      case HostLayer::kSubmit: return "offload.submit";
      case HostLayer::kParse: return "bench.parse";
      case HostLayer::kVerify: return "bench.verify";
      case HostLayer::kQueueMicro: return "sim.queue_micro";
      case HostLayer::kIsaMicro: return "isa.run_iteration_micro";
    }
    return "?";
}

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
}

std::int64_t
SpanLog::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::uint32_t
SpanLog::begin(HostLayer layer, std::uint32_t parent)
{
    if (!enabled_) {
        return kNoParent;
    }
    spans_.push_back(Span{parent, layer, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
SpanLog::end(std::uint32_t id)
{
    if (id == kNoParent) {
        return;
    }
    spans_[id].dur_ns = now_ns() - spans_[id].start_ns;
}

SpanLog::Totals
SpanLog::totals(std::int64_t from_ns) const
{
    Totals totals;
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& span : spans_) {
        if (span.parent != kNoParent) {
            child_ns[span.parent] += static_cast<double>(span.dur_ns);
        }
    }
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span& span = spans_[i];
        if (span.start_ns < from_ns) {
            continue;
        }
        const auto layer = static_cast<std::size_t>(span.layer);
        totals.total_ns[layer] += static_cast<double>(span.dur_ns);
        totals.self_ns[layer] +=
            static_cast<double>(span.dur_ns) - child_ns[i];
        totals.count[layer]++;
    }
    return totals;
}

bool
SpanLog::write_csv(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    std::fprintf(out, "id,parent,layer,start_ns,dur_ns\n");
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span& span = spans_[i];
        std::fprintf(out, "%zu,%lld,%s,%lld,%lld\n", i,
                     span.parent == kNoParent
                         ? -1LL
                         : static_cast<long long>(span.parent),
                     host_layer_name(span.layer),
                     static_cast<long long>(span.start_ns),
                     static_cast<long long>(span.dur_ns));
    }
    return std::fclose(out) == 0;
}

}  // namespace perfbench
