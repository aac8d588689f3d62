/**
 * @file
 * The network's message table: a slot table with a free list, reached
 * through an id window.
 *
 * Ids are issued in increasing order, so every live id lies in the
 * window [base, base + span): entry `id - base` names the message's slot,
 * or none once it has retired. find() is therefore a bounds check and
 * two indexes — no hashing, no division — and walking the window visits
 * the live messages in id order. The window drops its retired prefix as
 * the oldest message retires, so its length follows the live id span,
 * not every id ever issued. Slots live in fixed-size chunks, so a
 * Message never moves while it is live.
 */

#ifndef TPNET_CORE_MESSAGE_STORE_HPP
#define TPNET_CORE_MESSAGE_STORE_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/message.hpp"
#include "sim/log.hpp"

namespace tpnet {

/** Live messages by id. */
class MessageStore
{
  public:
    /** Number of live messages. */
    std::size_t size() const { return live_; }

    /** Ids the window spans, live or retired (its memory, in entries). */
    std::uint64_t span() const { return span_; }

    bool contains(MsgId id) const { return slotOf(id) != kNone; }

    /** Slot of live message @p id (reused once it retires), or none. */
    std::optional<std::uint32_t>
    slot(MsgId id) const
    {
        const std::uint32_t s = slotOf(id);
        return s == kNone ? std::nullopt : std::optional(s);
    }

    /** Slots allocated so far, live or free: every slot() lies below. */
    std::uint32_t slotCount() const { return slots_; }

    /** @return the message, or nullptr when @p id is not live. */
    Message *
    find(MsgId id)
    {
        const std::uint32_t s = slotOf(id);
        return s == kNone ? nullptr : &at(s);
    }

    const Message *
    find(MsgId id) const
    {
        const std::uint32_t s = slotOf(id);
        return s == kNone ? nullptr : &at(s);
    }

    /**
     * Store @p msg under msg.id, which must be greater than every id
     * stored before (ids skipped over read as retired).
     */
    Message &
    insert(Message &&msg)
    {
        const MsgId id = msg.id;
        if (span_ == 0) {
            base_ = id;
            head_ = 0;
        } else if (id < base_ ||
                   static_cast<std::uint64_t>(id - base_) < span_) {
            tpnet_panic("message id ", id, " inserted out of order");
        }
        const std::uint64_t off = static_cast<std::uint64_t>(id - base_);
        reserveWindow(off + 1);
        while (span_ < off)
            window(span_++) = kNone;
        std::uint32_t s;
        if (!free_.empty()) {
            s = free_.back();
            free_.pop_back();
        } else {
            if ((slots_ & kChunkMask) == 0)
                chunks_.push_back(std::make_unique<Message[]>(kChunk));
            s = slots_++;
        }
        window(span_++) = s;
        ++live_;
        Message &stored = at(s);
        stored = std::move(msg);
        return stored;
    }

    /** Retire message @p id (no-op when it is not live). */
    void
    erase(MsgId id)
    {
        const std::uint32_t s = slotOf(id);
        if (s == kNone)
            return;
        at(s) = Message{};  // release its path and history store
        free_.push_back(s);
        window(static_cast<std::uint64_t>(id - base_)) = kNone;
        --live_;
        while (span_ > 0 && window(0) == kNone) {
            head_ = (head_ + 1) & (ring_.size() - 1);
            ++base_;
            --span_;
        }
    }

    /** Call @p f(Message &) for every live message, in id order. */
    template <class F>
    void
    forEach(F f)
    {
        for (std::uint64_t off = 0; off < span_; ++off) {
            const std::uint32_t s = window(off);
            if (s != kNone)
                f(at(s));
        }
    }

    /** Call @p f(const Message &) for every live message, in id order. */
    template <class F>
    void
    forEach(F f) const
    {
        for (std::uint64_t off = 0; off < span_; ++off) {
            const std::uint32_t s = window(off);
            if (s != kNone)
                f(at(s));
        }
    }

    /**
     * Recount the window against the slots and the free list.
     * @return a description of the first inconsistency, or "" if none.
     */
    std::string
    audit() const
    {
        std::ostringstream os;
        std::vector<char> used(slots_, 0);
        std::size_t live = 0;
        for (std::uint64_t off = 0; off < span_; ++off) {
            const std::uint32_t s = window(off);
            if (s == kNone)
                continue;
            const MsgId id = base_ + static_cast<MsgId>(off);
            if (s >= slots_ || used[s]) {
                os << "message window entry of id " << id
                   << " names slot " << s << " twice or out of range";
                return os.str();
            }
            used[s] = 1;
            ++live;
            if (at(s).id != id) {
                os << "message window entry of id " << id
                   << " holds message " << at(s).id;
                return os.str();
            }
        }
        if (span_ > 0 && window(0) == kNone) {
            os << "message window starts at retired id " << base_;
            return os.str();
        }
        if (live != live_) {
            os << "message store counts " << live_
               << " live messages, window holds " << live;
            return os.str();
        }
        for (std::uint32_t s : free_) {
            if (s >= slots_ || used[s]) {
                os << "free message slot " << s << " is live or repeated";
                return os.str();
            }
            used[s] = 1;
        }
        if (live_ + free_.size() != slots_) {
            os << "message slots leak: " << slots_ << " slots, " << live_
               << " live, " << free_.size() << " free";
            return os.str();
        }
        return "";
    }

  private:
    static constexpr std::uint32_t kNone = 0xffffffffu;
    static constexpr std::uint32_t kChunkBits = 6;
    static constexpr std::uint32_t kChunk = 1u << kChunkBits;
    static constexpr std::uint32_t kChunkMask = kChunk - 1;

    std::uint32_t
    slotOf(MsgId id) const
    {
        // Unsigned: ids below the window wrap far past its end.
        const std::uint64_t off = static_cast<std::uint64_t>(id) -
                                  static_cast<std::uint64_t>(base_);
        return off < span_ ? window(off) : kNone;
    }

    std::uint32_t &
    window(std::uint64_t off)
    {
        return ring_[(head_ + off) & (ring_.size() - 1)];
    }

    std::uint32_t
    window(std::uint64_t off) const
    {
        return ring_[(head_ + off) & (ring_.size() - 1)];
    }

    /** Grow the window ring (a power of two) to hold @p n entries. */
    void
    reserveWindow(std::uint64_t n)
    {
        if (n <= ring_.size())
            return;
        std::size_t cap = ring_.empty() ? 64 : ring_.size();
        while (cap < n)
            cap *= 2;
        std::vector<std::uint32_t> grown(cap, kNone);
        for (std::uint64_t off = 0; off < span_; ++off)
            grown[off] = window(off);
        ring_ = std::move(grown);
        head_ = 0;
    }

    Message &
    at(std::uint32_t s)
    {
        return chunks_[s >> kChunkBits][s & kChunkMask];
    }

    const Message &
    at(std::uint32_t s) const
    {
        return chunks_[s >> kChunkBits][s & kChunkMask];
    }

    std::vector<std::unique_ptr<Message[]>> chunks_;
    std::uint32_t slots_ = 0;           ///< slots allocated so far
    std::vector<std::uint32_t> free_;   ///< retired slots, reused LIFO
    std::vector<std::uint32_t> ring_;   ///< the id window
    std::size_t head_ = 0;              ///< ring position of base_
    std::uint64_t span_ = 0;            ///< window length
    MsgId base_ = 0;                    ///< id of window entry 0
    std::size_t live_ = 0;
};

} // namespace tpnet

#endif // TPNET_CORE_MESSAGE_STORE_HPP
