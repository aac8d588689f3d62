/** @file Tests for the Fig. 9 architectural header flit format. */

#include <gtest/gtest.h>

#include "routing/header.hpp"

namespace tpnet {
namespace {

TEST(HeaderCodec, BitBudget16Ary2Cube)
{
    // Fig. 9 for the evaluated network: header(1) + backtrack(1) +
    // misroute(3) + detour(1) + SR(1) = 7 mode bits, plus two offset
    // fields of sign + 4 magnitude bits (|offset| <= 8).
    HeaderCodec codec(16, 2);
    EXPECT_EQ(codec.bits(), 7 + 2 * (1 + 4));
    EXPECT_EQ(codec.flits16(), 2);
}

TEST(HeaderCodec, SmallNetworkFitsOneFlit)
{
    HeaderCodec codec(4, 2);
    EXPECT_LE(codec.bits(), 16);
    EXPECT_EQ(codec.flits16(), 1);
}

TEST(HeaderCodec, RoundTripModeBits)
{
    HeaderCodec codec(16, 2);
    HeaderState hdr;
    hdr.backtrack = true;
    hdr.detour = true;
    hdr.sr = false;
    hdr.misroutes = 5;
    hdr.offset[0] = -8;
    hdr.offset[1] = 7;
    const HeaderState out = codec.unpack(codec.pack(hdr));
    EXPECT_EQ(out.backtrack, hdr.backtrack);
    EXPECT_EQ(out.detour, hdr.detour);
    EXPECT_EQ(out.sr, hdr.sr);
    EXPECT_EQ(out.misroutes, hdr.misroutes);
    EXPECT_EQ(out.offset[0], hdr.offset[0]);
    EXPECT_EQ(out.offset[1], hdr.offset[1]);
}

TEST(HeaderCodec, MisrouteFieldHoldsTheoremTwoBudget)
{
    // The misroute field is 3 bits because TP needs at most 6 misroutes
    // (Section 5.0).
    HeaderCodec codec(16, 2);
    HeaderState hdr;
    hdr.misroutes = 6;
    EXPECT_EQ(codec.unpack(codec.pack(hdr)).misroutes, 6);
}

/** Round-trip every offset combination on several geometries. */
class CodecSweep : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(CodecSweep, RoundTripAllOffsets)
{
    const auto [k, n] = GetParam();
    HeaderCodec codec(k, n);
    HeaderState hdr;
    for (int off0 = -(k / 2); off0 <= k / 2; ++off0) {
        for (int off1 = -(k / 2); off1 <= k / 2; ++off1) {
            hdr.offset[0] = off0;
            if (n > 1)
                hdr.offset[1] = off1;
            const HeaderState out = codec.unpack(codec.pack(hdr));
            EXPECT_EQ(out.offset[0], off0);
            if (n > 1) {
                EXPECT_EQ(out.offset[1], off1);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CodecSweep,
                         ::testing::Values(std::make_tuple(4, 2),
                                           std::make_tuple(8, 2),
                                           std::make_tuple(16, 2),
                                           std::make_tuple(16, 3),
                                           std::make_tuple(32, 2)));

TEST(HeaderCodecDeath, RejectsNonHeaderWord)
{
    HeaderCodec codec(8, 2);
    EXPECT_DEATH(codec.unpack(0), "header bit");
}

TEST(HeaderState, AtDest)
{
    HeaderState hdr;
    EXPECT_TRUE(hdr.atDest());
    hdr.offset[1] = -2;
    EXPECT_FALSE(hdr.atDest());
}

} // namespace
} // namespace tpnet
