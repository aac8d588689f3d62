/**
 * @file
 * Bounded FIFO ring position: the head slot and occupancy of a ring
 * whose slots the caller owns, as every DIBU in the network's data
 * plane (router/data_plane.hpp) uses it. Pushing into a full ring is a
 * simulator bug (the flow control layers check for room first — that
 * check is the credit mechanism), as is reading an empty one; both
 * panic. Wrapping is a compare, never a division.
 */

#ifndef TPNET_SIM_FIFO_HPP
#define TPNET_SIM_FIFO_HPP

#include <cstddef>
#include <cstdint>

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

} // namespace tpnet

#endif // TPNET_SIM_FIFO_HPP
