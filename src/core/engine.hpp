/**
 * @file
 * Activity-scheduling primitives of the event-driven cycle engine.
 *
 * Two flat, allocation-light structures (the `reschedule`/`tick` shape
 * of stephen422/netsim, adapted to this simulator's rotating service
 * order):
 *
 *  - ActivitySet: the per-phase ready set. Entities (routers, wires)
 *    self-register when they gain work and deregister when a visit
 *    finds them drained; a phase visits only registered entities, in
 *    exactly the rotation order the time-stepped engine would have
 *    used. Mid-pass registrations are merged into the ongoing pass iff
 *    their rotation key is still ahead of the cursor — precisely the
 *    entities the full scan would still have reached this cycle — so
 *    iteration is bit-identical to the full scan by construction.
 *
 *  - WakeupQueue: earliest-wins wakeup slots, one per token, used by
 *    the RunLoop (core/run_loop.hpp) to aggregate external wakeup
 *    sources — phase ends, fault schedules, watchdog deadlines,
 *    checkpoint-every boundaries, the network's own next event — into
 *    a single next-event cycle for the skip fast path.
 *
 * Waking an entity (or a cycle) that turns out to have nothing to do
 * is always safe: a visit of a drained entity mutates nothing, and a
 * stepped cycle is executed identically by both engines. Only a missed
 * wakeup can diverge, so every consumer errs on the early side.
 */

#ifndef TPNET_CORE_ENGINE_HPP
#define TPNET_CORE_ENGINE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace tpnet {

/** Cycle value meaning "no event scheduled". */
constexpr Cycle cycleNever = ~Cycle{0};

/** Ready set over a fixed universe [0, n) with rotation-ordered passes. */
class ActivitySet
{
  public:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /** Reset to universe size @p n, all inactive. */
    void
    reset(std::size_t n)
    {
        n_ = n;
        active_.assign(n, 0);
        inList_.assign(n, 0);
        ids_.clear();
        passAdds_.clear();
        count_ = 0;
        inPass_ = false;
        scan_ = false;
        scanPos_ = 0;
    }

    std::size_t size() const { return n_; }
    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    bool
    active(std::uint32_t id) const
    {
        return active_[id] != 0;
    }

    /**
     * Mark @p id active. During a pass, an entity whose rotation key is
     * still ahead of the cursor joins the ongoing pass (the full scan
     * would still reach it this cycle); one at or behind the cursor
     * waits for the next pass (the full scan already passed it).
     */
    void
    add(std::uint32_t id)
    {
        if (!active_[id])
            join(id);
    }

    /** Mark @p id inactive (membership is pruned lazily). */
    void
    remove(std::uint32_t id)
    {
        if (!active_[id])
            return;
        active_[id] = 0;
        --count_;
    }

    /**
     * Start a pass in rotation order: entity ids are visited by
     * ascending key (id + n - rot) % n, matching a full scan that
     * starts at offset @p rot.
     */
    void
    beginPass(std::size_t rot)
    {
        rot_ = n_ ? static_cast<std::uint32_t>(rot % n_) : 0;
        // Dense passes walk the whole universe in rotation order
        // instead of sorting the membership list: once the active set
        // is a sizable fraction of n, the O(n) scan is cheaper than
        // the O(A log A) sort, and the visit order is identical either
        // way. Membership compaction is simply deferred to the next
        // sparse pass.
        scan_ = count_ * 8 >= n_;
        if (scan_) {
            scanPos_ = 0;
            cursor_ = -1;
            inPass_ = true;
            return;
        }
        // Compact the membership list down to the live entries, then
        // order it for this pass.
        std::size_t w = 0;
        for (std::size_t r = 0; r < ids_.size(); ++r) {
            const std::uint32_t id = ids_[r];
            if (active_[id])
                ids_[w++] = id;
            else
                inList_[id] = 0;
        }
        ids_.resize(w);
        std::sort(ids_.begin(), ids_.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return key(a) < key(b);
                  });
        passEnd_ = ids_.size();
        passPos_ = 0;
        addPos_ = 0;
        passAdds_.clear();
        cursor_ = -1;
        inPass_ = true;
    }

    /**
     * Next active entity of the current pass in rotation order, or
     * kNone when the pass (including merged mid-pass additions) is
     * exhausted. Entities deactivated since registration are skipped.
     */
    std::uint32_t
    next()
    {
        if (scan_) {
            while (scanPos_ < n_) {
                std::size_t at = rot_ + scanPos_;
                if (at >= n_)
                    at -= n_;
                const std::uint32_t id = static_cast<std::uint32_t>(at);
                cursor_ = static_cast<std::int64_t>(scanPos_);
                ++scanPos_;
                if (active_[id])
                    return id;
            }
            inPass_ = false;
            return kNone;
        }
        while (passPos_ < passEnd_ || addPos_ < passAdds_.size()) {
            std::uint32_t id;
            if (passPos_ < passEnd_ && addPos_ < passAdds_.size()) {
                const std::uint32_t a = ids_[passPos_];
                const std::uint32_t b = passAdds_[addPos_];
                if (key(a) <= key(b)) {
                    id = a;
                    ++passPos_;
                    if (a == b)  // same entity in both lists
                        ++addPos_;
                } else {
                    id = b;
                    ++addPos_;
                }
            } else if (passPos_ < passEnd_) {
                id = ids_[passPos_++];
            } else {
                id = passAdds_[addPos_++];
            }
            cursor_ = static_cast<std::int64_t>(key(id));
            if (active_[id])
                return id;
        }
        inPass_ = false;
        return kNone;
    }

  private:
    /** add() of an inactive entity (the rare case: the hot call finds
     *  its entity already active). */
    void
    join(std::uint32_t id)
    {
        active_[id] = 1;
        ++count_;
        if (!inList_[id]) {
            inList_[id] = 1;
            ids_.push_back(id);
        }
        // A scan-mode pass reaches every key ahead of the cursor by
        // itself; only sorted passes need the mid-pass merge list.
        if (inPass_ && !scan_ &&
            static_cast<std::int64_t>(key(id)) > cursor_) {
            const auto pos = std::lower_bound(
                passAdds_.begin(), passAdds_.end(), id,
                [this](std::uint32_t a, std::uint32_t b) {
                    return key(a) < key(b);
                });
            if (pos == passAdds_.end() || *pos != id)
                passAdds_.insert(pos, id);
        }
    }

    std::uint32_t
    key(std::uint32_t id) const
    {
        return (id + static_cast<std::uint32_t>(n_) - rot_) %
               static_cast<std::uint32_t>(n_);
    }

    std::size_t n_ = 0;
    std::vector<std::uint8_t> active_;   ///< entity is ready
    std::vector<std::uint8_t> inList_;   ///< entity is in ids_
    std::vector<std::uint32_t> ids_;     ///< membership, pruned lazily
    std::vector<std::uint32_t> passAdds_;///< mid-pass joins, key-sorted
    std::size_t count_ = 0;              ///< live active count
    std::size_t passEnd_ = 0;
    std::size_t passPos_ = 0;
    std::size_t addPos_ = 0;
    std::int64_t cursor_ = -1;           ///< key of last visited entity
    std::uint32_t rot_ = 0;
    bool inPass_ = false;
    bool scan_ = false;                  ///< dense pass: scan, not sort
    std::size_t scanPos_ = 0;            ///< scan-mode key cursor
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
