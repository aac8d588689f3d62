/**
 * @file
 * FIFO rings. RingPos is the head slot and occupancy of a bounded ring
 * whose slots the caller owns, as every DIBU in the network's data
 * plane (router/data_plane.hpp) uses it. Pushing into a full ring is a
 * simulator bug (the flow control layers check for room first — that
 * check is the credit mechanism), as is reading an empty one; both
 * panic. Wrapping is a compare, never a division. Fifo<T> is the
 * control lanes' and RCU queues' unbounded queue: a growable ring that
 * owns no storage until its first push and wraps with a mask.
 */

#ifndef TPNET_SIM_FIFO_HPP
#define TPNET_SIM_FIFO_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/log.hpp"
#include "sim/types.hpp"

namespace tpnet {

/**
 * Head slot and occupancy of a bounded FIFO whose slots live elsewhere
 * (16-bit positions: capacity at most maxBufDepth).
 */
class RingPos
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Claim the slot behind the tail; the ring must not be full. */
    std::size_t
    push(std::size_t cap)
    {
        if (size_ == cap)
            tpnet_panic("push into full FIFO (capacity ", cap, ")");
        std::size_t slot = head_ + size_;
        if (slot >= cap)
            slot -= cap;
        ++size_;
        return slot;
    }

    /** Slot of the oldest element; the ring must not be empty. */
    std::size_t
    front() const
    {
        if (size_ == 0)
            tpnet_panic("front of empty FIFO");
        return head_;
    }

    /** Release the oldest element; @return the slot it occupied. */
    std::size_t
    pop(std::size_t cap)
    {
        const std::size_t slot = front();
        head_ = slot + 1 == cap ? 0 : static_cast<std::uint16_t>(slot + 1);
        --size_;
        return slot;
    }

    /** Slot of the element @p i positions behind the head. */
    std::size_t
    at(std::size_t i, std::size_t cap) const
    {
        if (i >= size_)
            tpnet_panic("FIFO index ", i, " out of range ", size_);
        std::size_t slot = head_ + i;
        if (slot >= cap)
            slot -= cap;
        return slot;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::uint16_t head_ = 0;
    std::uint16_t size_ = 0;
};

/**
 * Unbounded FIFO of @p T on a power-of-two ring that doubles when full;
 * element i is the i-th oldest, the order pops return them in.
 */
template <class T>
class Fifo
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    T &operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
    T &front() { return slots_[head_]; }
    void clear() { head_ = size_ = 0; }

    void
    push_back(const T &v)
    {
        if (size_ == slots_.size()) {
            // Full: unwrap the ring, then double it (first push: 4).
            std::rotate(slots_.begin(),
                        slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                        slots_.end());
            slots_.resize(std::max<std::size_t>(4, 2 * size_));
            head_ = 0;
        }
        slots_[(head_ + size_++) & mask()] = v;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask();
        --size_;
    }

    /** Pad with value-initialized elements up to, or truncate to, @p n. */
    void
    resize(std::size_t n)
    {
        while (size_ < n)
            push_back(T{});
        size_ = n;
    }

  private:
    std::size_t mask() const { return slots_.size() - 1; }

    std::vector<T> slots_;  ///< the ring: empty or a power of two long
    std::size_t head_ = 0;  ///< slot of the oldest element
    std::size_t size_ = 0;
};

} // namespace tpnet

#endif // TPNET_SIM_FIFO_HPP
