/**
 * @file
 * Interval sampling: periodic snapshots of the core's progress
 * (committed instructions, cycles, IPC) and its stall-cycle breakdown
 * over fixed-length cycle windows.
 *
 * One sampler, two sinks. An IntervalSampler is fed by the core with
 * *cumulative* totals at its sample boundaries (nextSampleCycle()) and
 * differences them into one row per period; a sink overrides
 * onSample() to keep the row. IntervalRecorder keeps the rows as the
 * IPC/stall time series behind --stats-interval; obs::HeartbeatRun
 * streams each row as a live `tick` record. The core cuts skipped idle
 * windows at the earliest boundary of every attached sampler, so each
 * row lands on an exact multiple of the period and matches a
 * per-cycle feed. No sampler ever feeds anything back into the model,
 * so enabling one cannot perturb simulation results.
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

/** Boundary-exact differencing of the core's cumulative feed. */
class IntervalSampler
{
  public:
    /** Sample every @p period cycles (0 behaves as 1). */
    explicit IntervalSampler(Cycle period) : period_(period ? period : 1)
    {
    }

    virtual ~IntervalSampler() = default;

    IntervalSampler(const IntervalSampler &) = delete;
    IntervalSampler &operator=(const IntervalSampler &) = delete;

    Cycle period() const { return period_; }

    /** First cycle whose tick() emits a sample: feeding only at (or
     *  past) it is equivalent to feeding every cycle. */
    Cycle nextSampleCycle() const { return lastCycle_ + period_; }

    /**
     * Advance to @p cycle with cumulative committed/stall totals and
     * the cumulative count of retired off-chip transactions; emits a
     * sample when a full period has elapsed since the last.
     */
    void
    tick(Cycle cycle, std::uint64_t committed, const StallArray &stalls,
         std::uint64_t txns)
    {
        if (cycle - lastCycle_ >= period_)
            sample(cycle, committed, stalls, txns);
    }

  protected:
    /** Move the delta anchor to @p cycle without emitting. */
    void anchor(Cycle cycle) { lastCycle_ = cycle; }

    Cycle lastCycle() const { return lastCycle_; }

    /** Difference the totals against the last sample, hand the row to
     *  onSample() and re-anchor at @p cycle. */
    void sample(Cycle cycle, std::uint64_t committed,
                const StallArray &stalls, std::uint64_t txns);

    /** One row is due. @p committed and @p txns are the cumulative
     *  totals the row was differenced from. */
    virtual void onSample(const IntervalSample &row, std::uint64_t committed,
                          std::uint64_t txns) = 0;

  private:
    Cycle period_;
    Cycle lastCycle_ = 0;
    std::uint64_t lastCommitted_ = 0;
    StallArray lastStalls_{};
};

/** Sink that keeps the rows in memory (exp::Result::intervals). */
class IntervalRecorder final : public IntervalSampler
{
  public:
    using IntervalSampler::IntervalSampler;

    /** Flush the partial tail interval (end of the timed window). */
    void
    finish(Cycle cycle, std::uint64_t committed, const StallArray &stalls)
    {
        if (cycle > lastCycle())
            sample(cycle, committed, stalls, 0);
    }

    const std::vector<IntervalSample> &samples() const { return samples_; }

    bool empty() const { return samples_.empty(); }

  private:
    void
    onSample(const IntervalSample &row, std::uint64_t, std::uint64_t) override
    {
        samples_.push_back(row);
    }

    std::vector<IntervalSample> samples_;
};

/** Human-readable interval table (columns: progress + used stalls). */
void printIntervalTable(const std::vector<IntervalSample> &samples,
                        std::FILE *out);

} // namespace acp::obs

#endif // ACP_OBS_INTERVAL_HH
