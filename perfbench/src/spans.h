/**
 * @file
 * Host-time spans the benchmark records around its own calls into the
 * simulator's public functions. Kept in memory and written at exit.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/** Host-side layers the benchmark times around its calls into src/. */
enum class HostLayer : std::uint8_t {
    kBuild,       ///< core::Cluster construction
    kLoad,        ///< data-structure load (apps::*App)
    kWarmup,      ///< saturated warmup ops (part of set-up)
    kDrain,       ///< EventQueue::step loop over one timed chunk
    kGen,         ///< workload generator + ds::make_* (nested in drain)
    kSubmit,      ///< the cluster's submit function (nested in drain)
    kParse,       ///< ds::parse_* of a completion (nested in drain)
    kVerify,      ///< host-side reference checks (between chunks)
    kQueueMicro,  ///< sim::EventQueue timed alone
    kIsaMicro,    ///< isa::run_iteration timed alone
};

inline constexpr std::size_t kNumHostLayers =
    static_cast<std::size_t>(HostLayer::kIsaMicro) + 1;

const char* host_layer_name(HostLayer layer);

/** In-memory host spans; written out when the benchmark ends. */
class SpanLog
{
  public:
    static constexpr std::uint32_t kNoParent =
        std::numeric_limits<std::uint32_t>::max();

    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (kNoParent when disabled). */
    std::uint32_t begin(HostLayer layer, std::uint32_t parent = kNoParent);

    /** Close span @p id. */
    void end(std::uint32_t id);

    /** Nanoseconds since this log was created (span clock). */
    std::int64_t now_ns() const;

    /** Per-layer totals over spans that started at or after @p from_ns:
     *  total duration and self time (duration minus child spans). */
    struct Totals
    {
        double total_ns[kNumHostLayers] = {};
        double self_ns[kNumHostLayers] = {};
        std::uint64_t count[kNumHostLayers] = {};
    };
    Totals totals(std::int64_t from_ns) const;

    /** CSV: id,parent,layer,start_ns,dur_ns. */
    bool write_csv(const std::string& path) const;

  private:
    struct Span
    {
        std::uint32_t parent;
        HostLayer layer;
        std::int64_t start_ns;
        std::int64_t dur_ns;
    };

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
