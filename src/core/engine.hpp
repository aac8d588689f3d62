/**
 * @file
 * Activity-scheduling primitives of the event-driven cycle engine.
 *
 * Two flat, allocation-light structures (the `reschedule`/`tick` shape
 * of stephen422/netsim, adapted to this simulator's rotating service
 * order):
 *
 *  - ActivitySet: the per-phase ready set, one bit per entity (router,
 *    wire), set when it gains work and cleared when a visit finds it
 *    drained. A pass walks the words with std::countr_zero from the
 *    rotation offset to the end, then from 0 to the offset: exactly the
 *    time-stepped engine's order. The walk reads the live words, so a
 *    mid-pass registration joins the pass iff it is still ahead of the
 *    cursor — precisely the entities the full scan would still reach
 *    this cycle — and iteration is bit-identical by construction.
 *
 *  - WakeupQueue: earliest-wins wakeup slots, one per token, used by
 *    the RunLoop (core/run_loop.hpp) to aggregate external wakeup
 *    sources — phase ends, fault schedules, watchdog deadlines, the
 *    network's own next event — into a single next-event cycle for the
 *    skip fast path.
 *
 * Waking an entity (or a cycle) that turns out to have nothing to do
 * is always safe: a visit of a drained entity mutates nothing, and a
 * stepped cycle is executed identically by both engines. Only a missed
 * wakeup can diverge, so every consumer errs on the early side.
 */

#ifndef TPNET_CORE_ENGINE_HPP
#define TPNET_CORE_ENGINE_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace tpnet {

/** Cycle value meaning "no event scheduled". */
constexpr Cycle cycleNever = ~Cycle{0};

/**
 * Ready set over a fixed universe [0, n), one bit per entity, with
 * rotation-ordered passes.
 */
class ActivitySet
{
  public:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /** Reset to universe size @p n, all inactive. */
    void
    reset(std::size_t n)
    {
        n_ = n;
        words_.assign((n + 63) / 64, 0);
        count_ = pos_ = end_ = wrapEnd_ = 0;
    }

    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    bool
    active(std::uint32_t id) const
    {
        return (words_[id >> 6] >> (id & 63)) & 1;
    }

    /** Mark @p id active. During a pass, one ahead of the cursor joins
     *  it (the full scan would still reach it this cycle); one at or
     *  behind the cursor waits for the next pass. */
    void
    add(std::uint32_t id)
    {
        const std::uint64_t bit = std::uint64_t{1} << (id & 63);
        count_ += (words_[id >> 6] & bit) == 0;
        words_[id >> 6] |= bit;
    }

    void
    remove(std::uint32_t id)
    {
        const std::uint64_t bit = std::uint64_t{1} << (id & 63);
        count_ -= (words_[id >> 6] & bit) != 0;
        words_[id >> 6] &= ~bit;
    }

    /**
     * Start a pass in rotation order: ids by ascending key
     * (id + n - rot) % n, as a full scan from offset @p rot visits
     * them — [rot, n), then [0, rot).
     */
    void
    beginPass(std::size_t rot)
    {
        pos_ = wrapEnd_ = n_ ? rot % n_ : 0;
        end_ = n_;
    }

    /**
     * Next active entity of the pass, or kNone at its end. The walk
     * reads the live words from the cursor on, so an entity added ahead
     * of the cursor is visited and one removed ahead of it is not.
     */
    std::uint32_t
    next()
    {
        if (count_ == 0)
            return kNone;  // an idle phase walks no words
        for (;;) {
            if (pos_ < end_) {
                std::size_t w = pos_ >> 6;
                std::uint64_t bits =
                    words_[w] & (~std::uint64_t{0} << (pos_ & 63));
                while (bits == 0 && (++w << 6) < end_)
                    bits = words_[w];
                // countr_zero(0) is 64, which puts id past end_.
                const std::size_t id = (w << 6) +
                    static_cast<std::size_t>(std::countr_zero(bits));
                if (id < end_) {
                    pos_ = id + 1;
                    return static_cast<std::uint32_t>(id);
                }
            }
            if (wrapEnd_ == 0) {
                pos_ = end_;
                return kNone;
            }
            end_ = std::exchange(wrapEnd_, 0);  // second leg: [0, rot)
            pos_ = 0;
        }
    }

  private:
    std::size_t n_ = 0;
    std::vector<std::uint64_t> words_;  ///< bit id % 64 of word id / 64
    std::size_t count_ = 0;             ///< active entities
    std::size_t pos_ = 0;               ///< next id the pass inspects
    std::size_t end_ = 0;               ///< end of the current leg
    std::size_t wrapEnd_ = 0;           ///< end of the [0, rot) leg, 0 = none
};

/**
 * Wakeup slots with earliest-wins coalescing: one armed cycle per token.
 * Tokens are small dense integers chosen by the driver; nextAt() is the
 * earliest armed cycle.
 */
class WakeupQueue
{
  public:
    /** Reset to @p tokens token slots, none armed. */
    void
    reset(std::size_t tokens)
    {
        at_.assign(tokens, cycleNever);
    }

    /**
     * Arm @p token to fire at @p cycle. If already armed, the earlier
     * of the two cycles wins (an early wakeup is harmless; a late one
     * is a skip-past bug).
     */
    void
    schedule(std::uint32_t token, Cycle cycle)
    {
        at_[token] = std::min(at_[token], cycle);
    }

    /** Cycle of the earliest armed wakeup, or cycleNever. */
    Cycle
    nextAt() const
    {
        return at_.empty() ? cycleNever
                           : *std::min_element(at_.begin(), at_.end());
    }

  private:
    std::vector<Cycle> at_;  ///< armed cycle per token (cycleNever = off)
};

} // namespace tpnet

#endif // TPNET_CORE_ENGINE_HPP
