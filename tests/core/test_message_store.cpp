/** @file Unit tests for the network's message table (slot table plus
 *  id window). */

#include <gtest/gtest.h>

#include "core/message_store.hpp"

namespace tpnet {
namespace {

Message
msg(MsgId id, NodeId src = 0)
{
    Message m;
    m.id = id;
    m.src = src;
    return m;
}

/** Live ids, through the id-order walk. */
std::vector<MsgId>
idsOf(const MessageStore &store)
{
    std::vector<MsgId> ids;
    store.forEach([&ids](const Message &m) { ids.push_back(m.id); });
    return ids;
}

TEST(MessageStore, FindsLiveIdsOnly)
{
    MessageStore store;
    for (MsgId id = 0; id < 5; ++id)
        store.insert(msg(id, static_cast<NodeId>(id)));
    EXPECT_EQ(store.size(), 5u);
    ASSERT_NE(store.find(3), nullptr);
    EXPECT_EQ(store.find(3)->src, 3);
    EXPECT_EQ(store.find(5), nullptr);
    EXPECT_EQ(store.find(invalidMsg), nullptr);
    store.erase(3);
    EXPECT_EQ(store.find(3), nullptr);
    EXPECT_FALSE(store.contains(3));
    EXPECT_TRUE(store.contains(4));
    EXPECT_EQ(store.audit(), "");
}

TEST(MessageStore, WalksInIdOrderAcrossSlotReuse)
{
    // Retiring 1 and 2 frees their slots; 5 and 6 reuse them, but the
    // window still visits ids in increasing order.
    MessageStore store;
    for (MsgId id = 0; id < 5; ++id)
        store.insert(msg(id));
    store.erase(2);
    store.erase(1);
    store.insert(msg(5));
    store.insert(msg(6));
    EXPECT_EQ(idsOf(store), (std::vector<MsgId>{0, 3, 4, 5, 6}));
    std::vector<MsgId> walked;
    store.forEach([&walked](Message &m) { walked.push_back(m.id); });
    EXPECT_EQ(walked, idsOf(store));
    EXPECT_EQ(store.audit(), "");
}

TEST(MessageStore, WindowFollowsTheLiveSpan)
{
    // A long run retires in roughly id order: the window keeps only the
    // span from the oldest live id, never every id issued.
    MessageStore store;
    for (MsgId id = 0; id < 100000; ++id) {
        store.insert(msg(id));
        if (id >= 10)
            store.erase(id - 10);
    }
    EXPECT_EQ(store.size(), 10u);
    EXPECT_EQ(store.span(), 10u);
    EXPECT_EQ(idsOf(store).front(), 99990);
    // A straggler holds the window open behind it until it retires.
    store.insert(msg(100000));
    store.erase(99991);
    EXPECT_EQ(store.span(), 11u);
    store.erase(99990);
    EXPECT_EQ(store.span(), 9u);
    EXPECT_EQ(store.audit(), "");
}

TEST(MessageStore, MessagesDoNotMoveWhileLive)
{
    MessageStore store;
    Message &first = store.insert(msg(0));
    for (MsgId id = 1; id < 1000; ++id)
        store.insert(msg(id));
    EXPECT_EQ(&first, store.find(0));
}

TEST(MessageStoreDeath, OutOfOrderInsertPanics)
{
    MessageStore store;
    store.insert(msg(4));
    EXPECT_DEATH(store.insert(msg(4)), "out of order");
}

TEST(MessageStoreDeath, SkippingInsertPanics)
{
    // A non-empty store takes only the id after its last one.
    MessageStore store;
    store.insert(msg(7));
    EXPECT_DEATH(store.insert(msg(9)), "message id 9 inserted out of order");
    store.insert(msg(8));
    EXPECT_EQ(idsOf(store), (std::vector<MsgId>{7, 8}));
    for (MsgId id : {7, 8})
        store.erase(id);
    EXPECT_EQ(store.size(), 0u);
    store.insert(msg(2));  // an empty store restarts its window anywhere
    EXPECT_EQ(idsOf(store), (std::vector<MsgId>{2}));
    EXPECT_EQ(store.audit(), "");
}

} // namespace
} // namespace tpnet
