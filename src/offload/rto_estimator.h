/**
 * @file
 * Adaptive retransmission-timeout estimator (Jacobson/Karels, the
 * RFC 6298 algorithm) in integer picoseconds.
 *
 * The offload engine feeds one RTT sample per successfully matched
 * response leg (Karn's rule: legs that were retransmitted contribute no
 * sample, since the response cannot be attributed to a specific copy)
 * and arms its retransmit timer from rto(). Until the first sample
 * arrives the configured initial timeout is used, so a run that never
 * measures an RTT behaves exactly like the fixed-timeout engine.
 *
 * All arithmetic is integer shifts/divides on Time, so the estimator is
 * bit-deterministic and cheap enough to run per response.
 */
#ifndef PULSE_OFFLOAD_RTO_ESTIMATOR_H
#define PULSE_OFFLOAD_RTO_ESTIMATOR_H

#include "common/serial.h"
#include "common/units.h"

namespace pulse::offload {

/** Smoothed RTT tracker producing a clamped retransmission timeout. */
class RtoEstimator
{
  public:
    /**
     * @param initial_rto     timeout before any RTT sample exists
     * @param min_rto         lower clamp for the computed timeout
     * @param max_rto         upper clamp for the computed timeout
     * @param srtt_multiplier floor rto at srtt * this (guards against a
     *                        variance collapse under uniform simulated
     *                        RTTs, where srtt + 4*rttvar can shrink to
     *                        barely above srtt and fire spuriously)
     */
    RtoEstimator(Time initial_rto, Time min_rto, Time max_rto,
                 double srtt_multiplier)
        : initial_rto_(initial_rto), min_rto_(min_rto),
          max_rto_(max_rto), srtt_multiplier_(srtt_multiplier)
    {
    }

    /** Fold one RTT measurement into srtt/rttvar. */
    void
    sample(Time rtt)
    {
        if (rtt < 0) {
            rtt = 0;
        }
        if (!has_sample_) {
            // First measurement: srtt = R, rttvar = R/2 (RFC 6298 §2.2).
            srtt_ = rtt;
            rttvar_ = rtt / 2;
            has_sample_ = true;
            return;
        }
        // rttvar update uses the *old* srtt (RFC 6298 §2.3).
        const Time err = rtt - srtt_;
        const Time abs_err = err < 0 ? -err : err;
        rttvar_ += (abs_err - rttvar_) / 4;
        srtt_ += err / 8;
    }

    /** Current retransmission timeout. */
    Time
    rto() const
    {
        if (!has_sample_) {
            return initial_rto_;
        }
        Time rto = srtt_ + 4 * rttvar_;
        const Time floor =
            static_cast<Time>(static_cast<double>(srtt_) *
                              srtt_multiplier_);
        if (rto < floor) {
            rto = floor;
        }
        if (rto < min_rto_) {
            rto = min_rto_;
        }
        if (rto > max_rto_) {
            rto = max_rto_;
        }
        return rto;
    }

    bool has_sample() const { return has_sample_; }
    Time srtt() const { return srtt_; }
    Time rttvar() const { return rttvar_; }

    /** Forget all samples (back to the initial timeout). */
    void
    reset()
    {
        has_sample_ = false;
        srtt_ = 0;
        rttvar_ = 0;
    }

    /** Checkpoint support: the smoothed estimator state. */
    void
    checkpoint(StateIo& io)
    {
        io.boolean(has_sample_);
        io.i64(srtt_);
        io.i64(rttvar_);
    }

  private:
    Time initial_rto_;
    Time min_rto_;
    Time max_rto_;
    double srtt_multiplier_;
    bool has_sample_ = false;
    Time srtt_ = 0;
    Time rttvar_ = 0;
};

}  // namespace pulse::offload

#endif  // PULSE_OFFLOAD_RTO_ESTIMATOR_H
