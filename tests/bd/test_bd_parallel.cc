/**
 * @file
 * Byte-identity of the parallel BD encode across thread counts, plus
 * the reusable-buffer (encodeInto) contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <vector>

#include "bd/bd_codec.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace pce {
namespace {

/** Random image with tile-local structure (realistic BD ranges). */
ImageU8
randomImage(Rng &rng, int w, int h)
{
    ImageU8 img(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const int base = static_cast<int>(rng.uniform(0.0, 200.0));
            for (int c = 0; c < 3; ++c)
                img.setChannel(
                    x, y, c,
                    static_cast<uint8_t>(
                        base + static_cast<int>(
                                   rng.uniform(0.0, 55.0))));
        }
    }
    return img;
}

TEST(BdParallel, ThreadCountSweepIsByteIdentical)
{
    Rng rng(1);
    const struct
    {
        int w, h, tile;
    } cases[] = {{64, 64, 4}, {61, 47, 4}, {13, 7, 5}, {128, 96, 16},
                 {1, 1, 4},   {4, 4, 4}};
    for (const auto &cs : cases) {
        const ImageU8 img = randomImage(rng, cs.w, cs.h);
        const BdCodec codec(cs.tile);
        const std::vector<uint8_t> serial = codec.encode(img);

        for (const int workers : {0, 1, 2, 3}) {
            ThreadPool pool(workers);
            for (const int participants : {2, 3, 8}) {
                std::vector<uint8_t> out;
                BdEncodeScratch scratch;
                BdFrameStats stats;
                codec.encodeInto(img, &stats, out, &scratch, &pool,
                                 participants);
                EXPECT_EQ(out, serial)
                    << cs.w << "x" << cs.h << " tile " << cs.tile
                    << " workers " << workers << " participants "
                    << participants;
                EXPECT_EQ(stats.totalBits(),
                          codec.analyze(img).totalBits());
            }
        }
    }
}

/**
 * Image whose every tile-channel has a random delta width 0..8 (each
 * pixel is the channel's base plus a value below 2^w), so tile records
 * take every length mod 8 when the tile's pixel count is odd.
 */
ImageU8
randomWidthImage(Rng &rng, int w, int h, int tile)
{
    ImageU8 img(w, h);
    for (const TileRect &rect : tileGrid(w, h, tile)) {
        for (int c = 0; c < 3; ++c) {
            const unsigned bits =
                static_cast<unsigned>(rng.uniformInt(9));
            const unsigned base =
                static_cast<unsigned>(rng.uniformInt(256 >> bits));
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y)
                for (int x = rect.x0; x < rect.x0 + rect.w; ++x)
                    img.setChannel(
                        x, y, c,
                        static_cast<uint8_t>(
                            base + rng.uniformInt(1u << bits)));
        }
    }
    return img;
}

TEST(BdParallel, ChunkSeamsAtEveryBitPhaseAreByteIdentical)
{
    // Parallel chunks write straight into the output and merge only
    // their final partial byte into the next chunk's first byte. Sweep
    // frames whose chunk seams land on every bit phase, encoding into a
    // reused buffer pre-filled with 0xFF and larger than the stream, so
    // a seam byte that is missed, doubled, or left stale shows up.
    struct Case
    {
        int w, h, tile;
        bool flat;
    };
    std::vector<Case> cases = {
        {32, 32, 4, true},   // all-flat tiles: 36-bit records
        {33, 19, 4, true},   // flat, partial edge tiles
        {61, 47, 4, false},  // odd dimensions, partial edge tiles
        {13, 7, 5, false},
        {3, 3, 4, false},    // a 1-tile frame
        {8, 4, 4, false},    // 2 tiles: more participants than tiles
        {7, 5, 3, false},
    };
    for (int i = 0; i < 12; ++i)  // 9-pixel tiles: every record length
        cases.push_back({24 + i, 21 + 2 * i, 3, false});

    Rng rng(9);
    ThreadPool pool(3);
    std::bitset<8> phases;
    for (const Case &cs : cases) {
        ImageU8 img = randomWidthImage(rng, cs.w, cs.h, cs.tile);
        if (cs.flat)
            for (int y = 0; y < cs.h; ++y)
                for (int x = 0; x < cs.w; ++x)
                    for (int c = 0; c < 3; ++c)
                        img.setChannel(
                            x, y, c,
                            img.channel(x / cs.tile * cs.tile,
                                        y / cs.tile * cs.tile, c));
        const BdCodec codec(cs.tile);
        const std::vector<uint8_t> serial = codec.encode(img);
        ASSERT_EQ(BdCodec::decode(serial), img);

        const std::vector<TileRect> tiles =
            tileGrid(cs.w, cs.h, cs.tile);
        std::vector<std::size_t> offsets(tiles.size() + 1);
        BdCodec::walkTileRange(serial.data(), serial.size(), tiles, 0,
                               tiles.size(), 0, offsets.data());
        for (const int participants : {2, 3, 4, 5, 8}) {
            // Seam phases under encodeInto's chunking: min(tiles,
            // 4 x participants) equal tile ranges.
            const std::size_t n_chunks = std::min<std::size_t>(
                tiles.size(), 4 * static_cast<std::size_t>(participants));
            for (std::size_t k = 1; k < n_chunks; ++k)
                phases.set((kBdStreamHeaderBits +
                            offsets[tiles.size() * k / n_chunks]) %
                           8);

            std::vector<uint8_t> out(serial.size() + 64, 0xFF);
            out.reserve(2 * out.size());
            BdEncodeScratch scratch;
            codec.encodeInto(img, nullptr, out, &scratch, &pool,
                             participants);
            EXPECT_EQ(out, serial)
                << cs.w << "x" << cs.h << " tile " << cs.tile
                << " participants " << participants;
            EXPECT_EQ(BdCodec::decode(out), img);
        }
    }
    EXPECT_TRUE(phases.all()) << "seam phases covered: " << phases;
}

TEST(BdParallel, ParallelStreamDecodesLosslessly)
{
    Rng rng(2);
    const ImageU8 img = randomImage(rng, 96, 80);
    const BdCodec codec(4);
    ThreadPool pool(3);
    std::vector<uint8_t> out;
    codec.encodeInto(img, nullptr, out, nullptr, &pool, 4);
    EXPECT_EQ(BdCodec::decode(out), img);
}

TEST(BdParallel, StatsMatchSerialSinglePass)
{
    Rng rng(3);
    const ImageU8 img = randomImage(rng, 64, 48);
    const BdCodec codec(4);
    BdFrameStats serial_stats;
    codec.encode(img, &serial_stats);

    ThreadPool pool(2);
    BdFrameStats parallel_stats;
    std::vector<uint8_t> out;
    codec.encodeInto(img, &parallel_stats, out, nullptr, &pool, 3);
    EXPECT_EQ(parallel_stats.pixels, serial_stats.pixels);
    EXPECT_EQ(parallel_stats.headerBits, serial_stats.headerBits);
    EXPECT_EQ(parallel_stats.metaBits, serial_stats.metaBits);
    EXPECT_EQ(parallel_stats.baseBits, serial_stats.baseBits);
    EXPECT_EQ(parallel_stats.deltaBits, serial_stats.deltaBits);
}

TEST(BdParallel, EncodeIntoReusesTheOutputBuffer)
{
    Rng rng(4);
    const ImageU8 img = randomImage(rng, 64, 64);
    const BdCodec codec(4);
    const std::vector<uint8_t> expected = codec.encode(img);

    std::vector<uint8_t> out;
    BdEncodeScratch scratch;
    codec.encodeInto(img, nullptr, out, &scratch);
    EXPECT_EQ(out, expected);

    // Steady state: the second encode of a same-size frame must land
    // in the same allocation (capacity reuse, no growth).
    const uint8_t *data = out.data();
    const std::size_t cap = out.capacity();
    codec.encodeInto(img, nullptr, out, &scratch);
    EXPECT_EQ(out, expected);
    EXPECT_EQ(out.data(), data);
    EXPECT_EQ(out.capacity(), cap);
}

TEST(BdParallel, DecodeIntoRoundTripSweepIsByteIdentical)
{
    // encodeInto -> decodeInto across tile sizes, odd frame sizes
    // (edge tiles), and participant counts: the parallel decode must
    // reproduce the source image byte for byte, and match the serial
    // decode exactly, for any pool/participant combination.
    Rng rng(6);
    const struct
    {
        int w, h;
    } sizes[] = {{64, 64}, {61, 47}, {13, 7}, {1, 1}, {33, 40}};
    for (const int tile : {4, 8, 16}) {
        const BdCodec codec(tile);
        for (const auto &sz : sizes) {
            const ImageU8 img = randomImage(rng, sz.w, sz.h);
            std::vector<uint8_t> stream;
            codec.encodeInto(img, nullptr, stream);

            ImageU8 serial;
            BdCodec::decodeInto(stream, serial);
            EXPECT_EQ(serial, img)
                << sz.w << "x" << sz.h << " tile " << tile;

            for (const int workers : {0, 1, 3}) {
                ThreadPool pool(workers);
                for (const int participants : {1, 2, 8}) {
                    ImageU8 parallel;
                    BdDecodeScratch scratch;
                    BdCodec::decodeInto(stream, parallel, &scratch,
                                        &pool, participants);
                    EXPECT_EQ(parallel, img)
                        << sz.w << "x" << sz.h << " tile " << tile
                        << " workers " << workers << " participants "
                        << participants;
                }
            }
        }
    }
}

TEST(BdParallel, DecodeIntoReusesEveryBuffer)
{
    // Steady state: the second decode of a same-geometry stream must
    // land in the same allocations (image data, tile grid, offsets) —
    // the decode mirror of EncodeIntoReusesTheOutputBuffer.
    Rng rng(7);
    const ImageU8 img = randomImage(rng, 64, 48);
    const BdCodec codec(4);
    const std::vector<uint8_t> stream = codec.encode(img);

    ThreadPool pool(2);
    ImageU8 out;
    BdDecodeScratch scratch;
    BdCodec::decodeInto(stream, out, &scratch, &pool, 3);
    EXPECT_EQ(out, img);

    const uint8_t *img_data = out.data().data();
    const TileRect *tiles_data = scratch.tiles.data();
    const std::size_t *offsets_data = scratch.bitOffsets.data();
    for (int repeat = 0; repeat < 3; ++repeat) {
        BdCodec::decodeInto(stream, out, &scratch, &pool, 3);
        EXPECT_EQ(out, img);
        EXPECT_EQ(out.data().data(), img_data);
        EXPECT_EQ(scratch.tiles.data(), tiles_data);
        EXPECT_EQ(scratch.bitOffsets.data(), offsets_data);
    }
}

TEST(BdParallel, DecodeScratchSurvivesGeometryChanges)
{
    // One decode scratch reused across frame/tile geometries must keep
    // decoding losslessly (the cached grid is keyed, not assumed).
    Rng rng(8);
    BdDecodeScratch scratch;
    ImageU8 out;
    ThreadPool pool(2);
    for (const int dim : {32, 17, 64, 8}) {
        const ImageU8 img = randomImage(rng, dim, dim + 3);
        for (const int tile : {4, 7}) {
            const BdCodec codec(tile);
            BdCodec::decodeInto(codec.encode(img), out, &scratch,
                                &pool, 3);
            EXPECT_EQ(out, img) << dim << " tile " << tile;
        }
    }
}

TEST(BdParallel, ScratchSurvivesGeometryChanges)
{
    // One scratch reused across different frame sizes and tile sizes
    // must keep producing serial-identical streams.
    Rng rng(5);
    BdEncodeScratch scratch;
    std::vector<uint8_t> out;
    ThreadPool pool(2);
    for (const int dim : {32, 17, 64, 8}) {
        const ImageU8 img = randomImage(rng, dim, dim + 3);
        for (const int tile : {4, 7}) {
            const BdCodec codec(tile);
            codec.encodeInto(img, nullptr, out, &scratch, &pool, 3);
            EXPECT_EQ(out, codec.encode(img))
                << dim << " tile " << tile;
        }
    }
}

} // namespace
} // namespace pce
