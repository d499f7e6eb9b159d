/**
 * @file
 * Interval statistics: periodic snapshots of the core's progress
 * (committed instructions, cycles, IPC) and its stall-cycle breakdown
 * over fixed-length cycle windows, producing the IPC/stall time
 * series behind --stats-interval.
 *
 * The recorder is fed by the core with *cumulative* totals at its
 * sample boundaries (nextSampleCycle()); it differentiates them into
 * per-interval deltas. The core splits skipped idle windows at those
 * boundaries, so the series matches a per-cycle feed exactly. It
 * never feeds anything back into the model, so enabling intervals
 * cannot perturb simulation results.
 */

#ifndef ACP_OBS_INTERVAL_HH
#define ACP_OBS_INTERVAL_HH

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/types.hh"
#include "obs/stall.hh"

namespace acp::obs
{

/** One interval of the time series. */
struct IntervalSample
{
    /** Cycle at which the interval ends (core-local clock). */
    Cycle endCycle = 0;
    /** Interval length in cycles (== period except for the tail). */
    Cycle cycles = 0;
    /** Instructions committed during the interval. */
    std::uint64_t insts = 0;
    /** insts / cycles. */
    double ipc = 0.0;
    /** Per-cause non-committing cycles during the interval. */
    StallArray stalls{};
};

/** The recorder. */
class IntervalRecorder
{
  public:
    /** Snapshot every @p period cycles (0 behaves as 1). */
    explicit IntervalRecorder(Cycle period)
        : period_(period ? period : 1)
    {
    }

    Cycle period() const { return period_; }

    /** First cycle whose tick() emits a sample: feeding only at (or
     *  past) it is equivalent to feeding every cycle. */
    Cycle nextSampleCycle() const { return lastCycle_ + period_; }

    /**
     * Advance to @p cycle with cumulative committed/stall totals;
     * emits a sample when a full period has elapsed since the last.
     */
    void
    tick(Cycle cycle, std::uint64_t committed, const StallArray &stalls)
    {
        if (cycle - lastCycle_ >= period_)
            snapshot(cycle, committed, stalls);
    }

    /** Flush the partial tail interval (end of the timed window). */
    void
    finish(Cycle cycle, std::uint64_t committed, const StallArray &stalls)
    {
        if (cycle > lastCycle_)
            snapshot(cycle, committed, stalls);
    }

    /**
     * Re-anchor the deltas without emitting (a stats reset happened:
     * cumulative counters went back to zero mid-run).
     */
    void
    rebase(Cycle cycle, std::uint64_t committed, const StallArray &stalls)
    {
        lastCycle_ = cycle;
        lastCommitted_ = committed;
        lastStalls_ = stalls;
    }

    const std::vector<IntervalSample> &samples() const { return samples_; }

    bool empty() const { return samples_.empty(); }

  private:
    void
    snapshot(Cycle cycle, std::uint64_t committed, const StallArray &stalls)
    {
        IntervalSample s;
        s.endCycle = cycle;
        s.cycles = cycle - lastCycle_;
        s.insts = committed - lastCommitted_;
        s.ipc = s.cycles ? double(s.insts) / double(s.cycles) : 0.0;
        for (unsigned i = 0; i < kNumStallCauses; ++i)
            s.stalls[i] = stalls[i] - lastStalls_[i];
        samples_.push_back(s);
        rebase(cycle, committed, stalls);
    }

    Cycle period_;
    Cycle lastCycle_ = 0;
    std::uint64_t lastCommitted_ = 0;
    StallArray lastStalls_{};
    std::vector<IntervalSample> samples_;
};

/** Human-readable interval table (columns: progress + used stalls). */
void printIntervalTable(const std::vector<IntervalSample> &samples,
                        std::FILE *out);

} // namespace acp::obs

#endif // ACP_OBS_INTERVAL_HH
