#include "bd/bd_codec.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "common/bitstream.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"
#include "simd/tile_kernels.hh"

namespace pce {

namespace {

/** Stream magic ("BD1"), for defensive decode. */
constexpr uint32_t kMagic = 0x424431;
constexpr unsigned kMagicBits = 24;
constexpr unsigned kDimBits = 16;
constexpr unsigned kTileBits = 8;
constexpr unsigned kWidthFieldBits = kBdWidthFieldBits;
constexpr unsigned kBaseBits = kBdBaseBits;

static_assert(kMagicBits + 2 * kDimBits + kTileBits ==
                  kBdStreamHeaderBits,
              "header constant out of sync with the field widths");

/** Store @p word as 8 big-endian bytes at @p p (any alignment). */
void
storeBigEndian64(std::uint8_t *p, std::uint64_t word)
{
    if constexpr (std::endian::native == std::endian::little)
        word = __builtin_bswap64(word);
    std::memcpy(p, &word, sizeof word);
}

/** Store the 8-byte header (fields as in the file comment). */
void
storeStreamHeader(std::uint8_t *out8, int width, int height,
                  int tile_size)
{
    storeBigEndian64(
        out8, (std::uint64_t(kMagic) << (2 * kDimBits + kTileBits)) |
                  (std::uint64_t(width & 0xFFFF) << (kDimBits + kTileBits)) |
                  (std::uint64_t(height & 0xFFFF) << kTileBits) |
                  std::uint64_t(tile_size & 0xFF));
}

} // namespace

void
bdWriteStreamHeader(std::uint8_t *out8, int width, int height,
                    int tile_size)
{
    if (width < 1 || width > 0xFFFF || height < 1 || height > 0xFFFF)
        throw std::invalid_argument(
            "bdWriteStreamHeader: dimensions out of header range");
    if (tile_size < 1 || tile_size > 255)
        throw std::invalid_argument(
            "bdWriteStreamHeader: tile size out of range");
    storeStreamHeader(out8, width, height, tile_size);
}

unsigned
bdDeltaWidth(uint8_t min_value, uint8_t max_value)
{
    const unsigned range = static_cast<unsigned>(max_value) - min_value;
    unsigned w = 0;
    while ((1u << w) < range + 1u)
        ++w;
    return w;
}

std::size_t
bdTileBitsFromCodes(const uint8_t *codes, std::size_t n)
{
    std::size_t bits = 3 * (kWidthFieldBits + kBaseBits);
    if (n == 0)
        return bits;
    uint8_t lo[3] = {255, 255, 255};
    uint8_t hi[3] = {0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
        for (int c = 0; c < 3; ++c) {
            const uint8_t v = codes[3 * i + c];
            lo[c] = std::min(lo[c], v);
            hi[c] = std::max(hi[c], v);
        }
    }
    for (int c = 0; c < 3; ++c)
        bits += n * bdDeltaWidth(lo[c], hi[c]);
    return bits;
}

BdCodec::BdCodec(int tile_size) : tileSize_(tile_size)
{
    if (tile_size < 1 || tile_size > 255)
        throw std::invalid_argument("BdCodec: tile size out of range");
}

BdChannelStats
BdCodec::analyzeTileChannel(const ImageU8 &img, const TileRect &rect,
                            int channel)
{
    uint8_t lo = 255;
    uint8_t hi = 0;
    for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
        for (int x = rect.x0; x < rect.x0 + rect.w; ++x) {
            const uint8_t v = img.channel(x, y, channel);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    BdChannelStats s;
    s.deltaWidth = bdDeltaWidth(lo, hi);
    s.metaBits = kWidthFieldBits;
    s.baseBits = kBaseBits;
    s.deltaBits =
        static_cast<std::size_t>(rect.pixelCount()) * s.deltaWidth;
    return s;
}

std::vector<uint8_t>
BdCodec::encode(const ImageU8 &img, BdFrameStats *stats_out) const
{
    std::vector<uint8_t> out;
    encodeInto(img, stats_out, out);
    return out;
}

namespace {

/**
 * MSB-first writer of one chunk's bits straight into the final stream.
 * Bits gather in a 64-bit accumulator that is stored as a big-endian
 * word each time it fills. A chunk that starts mid-byte pre-counts the
 * leading bits as zeros: it stores its first byte with only its own
 * low bits set, and the previous chunk's tail is ORed in afterwards.
 */
class ChunkWriter
{
  public:
    ChunkWriter(std::uint8_t *stream, std::size_t bit_pos)
        : p_(stream + bit_pos / 8), n_(static_cast<unsigned>(bit_pos % 8))
    {}

    /** Append @p width (1..32) bits of @p value (< 2^width). */
    void put(std::uint32_t value, unsigned width)
    {
        const unsigned free = 64 - n_;
        if (width < free) {
            acc_ |= std::uint64_t(value) << (free - width);
            n_ += width;
            return;
        }
        n_ = width - free;
        storeBigEndian64(p_, acc_ | (std::uint64_t(value) >> n_));
        p_ += 8;
        acc_ = n_ == 0 ? 0 : std::uint64_t(value) << (64 - n_);
    }

    /** Store the remaining whole bytes; return the partial last one. */
    std::uint8_t finish()
    {
        for (unsigned i = 0; i < n_ / 8; ++i)
            p_[i] = static_cast<std::uint8_t>(acc_ >> (56 - 8 * i));
        return n_ % 8 == 0
                   ? 0
                   : static_cast<std::uint8_t>(acc_ >> (56 - n_ / 8 * 8));
    }

  private:
    std::uint8_t *p_;
    std::uint64_t acc_ = 0;
    unsigned n_;
};

/**
 * Emit the bitstream of tiles [begin, end) from the precomputed
 * per-tile-channel base/width stats into @p stream at @p bit_pos, and
 * return the final partial byte (see ChunkWriter::finish). The
 * emission order is exactly the serial encoder's, so ranges emitted at
 * their prefix offsets reproduce its stream bit for bit. The writer is
 * local so the compiler can keep it in registers across byte stores.
 */
std::uint8_t
emitTileRange(const ImageU8 &img, const std::vector<TileRect> &tiles,
              const std::vector<uint8_t> &base,
              const std::vector<uint8_t> &width, std::size_t begin,
              std::size_t end, std::uint8_t *stream, std::size_t bit_pos)
{
    ChunkWriter cw(stream, bit_pos);
    for (std::size_t t = begin; t < end; ++t) {
        // A copy: stores through the byte pointer could alias a
        // reference, forcing the loop bounds to reload per delta.
        const TileRect rect = tiles[t];
        for (int c = 0; c < 3; ++c) {
            const uint8_t lo = base[3 * t + c];
            const unsigned w = width[3 * t + c];
            cw.put((w << kBaseBits) | lo, kWidthFieldBits + kBaseBits);
            if (w == 0)
                continue;
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                const uint8_t *row = img.pixel(rect.x0, y) + c;
                for (int x = 0; x < rect.w; ++x)
                    cw.put(row[3 * x] - lo, w);
            }
        }
    }
    return cw.finish();
}

} // namespace

void
BdCodec::encodeInto(const ImageU8 &img, BdFrameStats *stats_out,
                    std::vector<uint8_t> &out, BdEncodeScratch *scratch,
                    ThreadPool *pool, int participants) const
{
    BdEncodeScratch local;
    BdEncodeScratch &s = scratch ? *scratch : local;
    if (s.tilesWidth != img.width() || s.tilesHeight != img.height() ||
        s.tilesSize != tileSize_) {
        s.tiles = tileGrid(img.width(), img.height(), tileSize_);
        s.tilesWidth = img.width();
        s.tilesHeight = img.height();
        s.tilesSize = tileSize_;
    }
    const std::vector<TileRect> &tiles = s.tiles;
    const std::size_t n_tiles = tiles.size();
    const bool parallel = pool != nullptr && participants > 1 &&
                          n_tiles > 1;

    // Pass 1: per-tile-channel minimum and delta width, through the
    // dispatched min/max kernel (32 bytes per op under AVX2; the scalar
    // table is the byte-wise reference — identical results either way,
    // min/max over integers is order-independent).
    s.base.resize(n_tiles * 3);
    s.width.resize(n_tiles * 3);
    const simd::TileKernels &kernels = simd::activeTileKernels();
    const std::size_t row_stride =
        static_cast<std::size_t>(img.width()) * 3;
    const uint8_t *buf_end = img.data().data() + img.data().size();
    auto statsRange = [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t t = begin; t < end; ++t) {
            const TileRect &rect = tiles[t];
            uint8_t lo[3];
            uint8_t hi[3];
            kernels.bdTileMinMax(img.pixel(rect.x0, rect.y0),
                                 row_stride, rect.w, rect.h, buf_end,
                                 lo, hi);
            for (int c = 0; c < 3; ++c) {
                s.base[3 * t + c] = lo[c];
                s.width[3 * t + c] =
                    static_cast<uint8_t>(bdDeltaWidth(lo[c], hi[c]));
            }
        }
    };
    {
        // Pass spans record on the dispatching thread only — worker
        // time inside parallelFor is inside the span's wall time.
        obs::TraceSpan span("bd/stats");
        if (parallel)
            pool->parallelFor(n_tiles, 16, participants, statsRange);
        else
            statsRange(0, n_tiles, 0);
    }

    // Pass 2 (serial): exact per-tile bit offsets by prefix sum.
    BdFrameStats stats;
    stats.pixels = img.pixelCount();
    stats.headerBits = kMagicBits + 2 * kDimBits + kTileBits;
    s.bitOffsets.resize(n_tiles + 1);
    std::size_t payload_bits = 0;
    {
        obs::TraceSpan span("bd/prefix");
        for (std::size_t t = 0; t < n_tiles; ++t) {
            s.bitOffsets[t] = payload_bits;
            const std::size_t pixels =
                static_cast<std::size_t>(tiles[t].pixelCount());
            std::size_t tile_bits = 3 * (kWidthFieldBits + kBaseBits);
            for (int c = 0; c < 3; ++c)
                tile_bits += pixels * s.width[3 * t + c];
            stats.deltaBits +=
                tile_bits - 3 * (kWidthFieldBits + kBaseBits);
            payload_bits += tile_bits;
        }
    }
    s.bitOffsets[n_tiles] = payload_bits;
    stats.metaBits = n_tiles * 3 * kWidthFieldBits;
    stats.baseBits = n_tiles * 3 * kBaseBits;

    // Pass 3: emission straight into the caller's buffer. Each chunk
    // of contiguous tiles starts at its prefix offset and stores every
    // byte it owns: all bytes from the one holding its first bit up to
    // (not including) the one holding its last partial byte. That
    // partial byte comes back as a tail and is ORed into the next
    // chunk's first byte after the barrier, so no two threads write
    // one byte, and every byte of @p out is stored or assigned (stale
    // bytes of a reused buffer cannot leak). More chunks than slots so
    // the dynamic scheduler can rebalance around cheap (flat/foveal)
    // runs; the serial path is the same code with one chunk.
    obs::TraceSpan emitSpan("bd/emit");
    const std::size_t total_bits = stats.headerBits + payload_bits;
    out.resize((total_bits + 7) / 8);
    out.back() = 0;  // the final partial byte, which no chunk stores
    storeStreamHeader(out.data(), img.width(), img.height(), tileSize_);
    const std::size_t n_chunks = std::min<std::size_t>(
        n_tiles, parallel ? static_cast<std::size_t>(participants) * 4
                          : 1);
    s.tails.resize(n_chunks);
    auto chunkBegin = [&](std::size_t k) {
        return stats.headerBits + s.bitOffsets[n_tiles * k / n_chunks];
    };
    auto emitChunks = [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t k = begin; k < end; ++k) {
            s.tails[k] = emitTileRange(
                img, tiles, s.base, s.width, n_tiles * k / n_chunks,
                n_tiles * (k + 1) / n_chunks, out.data(), chunkBegin(k));
        }
    };
    if (parallel)
        pool->parallelFor(n_chunks, 1, participants, emitChunks);
    else
        emitChunks(0, n_chunks, 0);
    // A tail is nonzero only when its chunk ends mid-byte. Every tile
    // record is at least 36 bits, so that byte is the next chunk's
    // first byte (or the stream's last), never the chunk's own first.
    for (std::size_t k = 0; k < n_chunks; ++k)
        if (s.tails[k] != 0)
            out[chunkBegin(k + 1) / 8] |= s.tails[k];
    emitSpan.end();
    if (stats_out)
        *stats_out = stats;
}

ImageU8
BdCodec::decode(const std::vector<uint8_t> &stream)
{
    ImageU8 img;
    decodeInto(stream, img);
    return img;
}

std::uint64_t
BdCodec::walkTileRange(const std::uint8_t *data, std::size_t size_bytes,
                       const std::vector<TileRect> &tiles,
                       std::size_t tile_begin, std::size_t tile_end,
                       std::uint64_t payload_bit_begin,
                       std::size_t *offsets_out)
{
    const std::uint64_t stream_bits =
        static_cast<std::uint64_t>(size_bytes) * 8;
    BitReader hdr(data, size_bytes);
    std::uint64_t offset = payload_bit_begin;
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
        if (offsets_out)
            offsets_out[t - tile_begin] =
                static_cast<std::size_t>(offset);
        const std::uint64_t pixels =
            static_cast<std::uint64_t>(tiles[t].pixelCount());
        for (int c = 0; c < 3; ++c) {
            const std::uint64_t field_pos =
                kBdStreamHeaderBits + offset;
            if (field_pos + kWidthFieldBits + kBaseBits > stream_bits)
                throw std::runtime_error(
                    "BdCodec::decode: stream truncated mid-tile");
            // Only the 4-bit width field is read (getBits' two-byte
            // fast path); bases and deltas are stepped over
            // arithmetically.
            hdr.seek(static_cast<std::size_t>(field_pos));
            const unsigned width = hdr.getBits(kWidthFieldBits);
            if (width > 8)
                throw std::runtime_error(
                    "BdCodec::decode: delta width field exceeds 8 "
                    "bits");
            offset += kWidthFieldBits + kBaseBits + pixels * width;
            if (kBdStreamHeaderBits + offset > stream_bits)
                throw std::runtime_error(
                    "BdCodec::decode: stream truncated mid-tile");
        }
    }
    if (offsets_out)
        offsets_out[tile_end - tile_begin] =
            static_cast<std::size_t>(offset);
    return offset;
}

void
BdCodec::decodeTileRangeInto(const std::uint8_t *data,
                             std::size_t size_bytes,
                             const std::vector<TileRect> &tiles,
                             std::size_t tile_begin,
                             std::size_t tile_end,
                             std::uint64_t payload_bit_begin,
                             ImageU8 &out)
{
    BitReader br(data, size_bytes);
    br.seek(static_cast<std::size_t>(kBdStreamHeaderBits +
                                     payload_bit_begin));
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
        const TileRect &rect = tiles[t];
        for (int c = 0; c < 3; ++c) {
            const unsigned width = br.getBits(kWidthFieldBits);
            const unsigned base = br.getBits(kBaseBits);
            if (width == 0) {
                // Flat channel (the cheap "case 2" tiles): no delta
                // bits to read, just splat the base.
                for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                    uint8_t *row = out.pixel(rect.x0, y);
                    for (int x = 0; x < rect.w; ++x)
                        row[3 * x + c] = static_cast<uint8_t>(base);
                }
                continue;
            }
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                uint8_t *row = out.pixel(rect.x0, y);
                for (int x = 0; x < rect.w; ++x)
                    row[3 * x + c] = static_cast<uint8_t>(
                        base + br.getBits(width));
            }
        }
    }
}

void
BdCodec::decodeInto(const std::vector<uint8_t> &stream, ImageU8 &out,
                    BdDecodeScratch *scratch, ThreadPool *pool,
                    int participants, std::uint64_t max_pixels,
                    bool duplicate_validate)
{
    constexpr std::size_t kHeaderBits =
        kMagicBits + 2 * kDimBits + kTileBits;
    const std::uint64_t stream_bits =
        static_cast<std::uint64_t>(stream.size()) * 8;
    if (stream_bits < kHeaderBits)
        throw std::runtime_error(
            "BdCodec::decode: stream shorter than header");
    BitReader hdr(stream);
    if (hdr.getBits(kMagicBits) != kMagic)
        throw std::runtime_error("BdCodec::decode: bad magic");
    const uint32_t w = hdr.getBits(kDimBits);
    const uint32_t h = hdr.getBits(kDimBits);
    const uint32_t tile = hdr.getBits(kTileBits);
    if (w == 0 || h == 0 || tile == 0)
        throw std::runtime_error("BdCodec::decode: bad header");
    // Decompression-bomb guard: flat tiles compress so well that a
    // huge frame can be *honestly* described by a tiny stream, so no
    // consistency check below bounds the output size — only this cap
    // does.
    if (static_cast<std::uint64_t>(w) * h > max_pixels)
        throw std::runtime_error(
            "BdCodec::decode: frame exceeds the decode pixel cap");

    // All tile/pixel arithmetic below is 64-bit: an adversarial
    // 0xFFFF x 0xFFFF header yields ~2^32 tiles and ~2^34 payload
    // bits, which must be *counted* correctly (no 32-bit wrap) so the
    // floor check rejects the stream before any allocation scales with
    // the claimed dimensions.
    const std::uint64_t tiles_x = (w + tile - 1) / tile;
    const std::uint64_t tiles_y = (h + tile - 1) / tile;
    const std::uint64_t n_tiles64 = tiles_x * tiles_y;
    // Every tile-channel costs at least its meta+base bits; a stream
    // below that floor cannot describe the claimed frame. This bounds
    // n_tiles by the actual stream size, so the tile grid and offset
    // arrays built next are O(stream), never O(claimed dimensions).
    if (n_tiles64 * 3 * (kWidthFieldBits + kBaseBits) >
        stream_bits - kHeaderBits)
        throw std::runtime_error(
            "BdCodec::decode: stream too short for header dimensions");

    BdDecodeScratch local;
    BdDecodeScratch &s = scratch ? *scratch : local;
    if (s.tilesWidth != static_cast<int>(w) ||
        s.tilesHeight != static_cast<int>(h) ||
        s.tilesSize != static_cast<int>(tile)) {
        s.tiles = tileGrid(static_cast<int>(w), static_cast<int>(h),
                           static_cast<int>(tile));
        s.tilesWidth = static_cast<int>(w);
        s.tilesHeight = static_cast<int>(h);
        s.tilesSize = static_cast<int>(tile);
    }
    const std::size_t n_tiles = s.tiles.size();

    // Pass 1 (serial): validate every per-tile-channel record and turn
    // the width fields into the exclusive prefix of per-tile payload
    // bit offsets — the exact dual of the encoder's prefix pass. Only
    // the 12-bit meta fields are read; delta blocks are stepped over
    // arithmetically.
    auto walkPrefix =
        [&](std::vector<std::size_t> &offsets) -> std::uint64_t {
        offsets.resize(n_tiles + 1);
        return walkTileRange(stream.data(), stream.size(), s.tiles, 0,
                             n_tiles, 0, offsets.data());
    };
    const std::uint64_t offset = walkPrefix(s.bitOffsets);

    if (duplicate_validate) {
        // Selective-EDDI: the walk above is the one serial stage whose
        // output (the offset table) every later tile read trusts
        // blindly. Re-run it into an independent buffer and compare;
        // any disagreement — an SEU in the accumulator, the table, or
        // the stream bytes between walks — is a detected error instead
        // of a silently shifted decode.
        if (s.prefixFaultHook)
            s.prefixFaultHook(s.bitOffsets);
        const std::uint64_t dup_offset = walkPrefix(s.dupOffsets);
        if (dup_offset != offset || s.dupOffsets != s.bitOffsets)
            throw std::runtime_error(
                "BdCodec::decode: duplicated validate pass disagrees "
                "(prefix fault detected)");
    }

    // The stream must be exactly the header + payload padded to a byte
    // boundary with zero bits: a longer buffer is trailing garbage, and
    // nonzero padding is garbage smuggled below the byte count.
    const std::uint64_t total_bits = kHeaderBits + offset;
    if ((total_bits + 7) / 8 != stream.size())
        throw std::runtime_error(
            "BdCodec::decode: stream length disagrees with payload "
            "(trailing garbage)");
    if (total_bits % 8 != 0) {
        const unsigned pad = 8 - static_cast<unsigned>(total_bits % 8);
        if (stream.back() & ((1u << pad) - 1u))
            throw std::runtime_error(
                "BdCodec::decode: nonzero padding bits");
    }

    // Pass 2: tile decode, parallel over the validated offsets. Tiles
    // are disjoint pixel ranges, so the output is byte-identical for
    // any participant count. Reallocate only on geometry change; every
    // byte of the image is overwritten below.
    if (out.width() != static_cast<int>(w) ||
        out.height() != static_cast<int>(h))
        out = ImageU8(static_cast<int>(w), static_cast<int>(h));
    const uint8_t *data = stream.data();
    const std::size_t size = stream.size();
    auto decodeRange = [&](std::size_t begin, std::size_t end, int) {
        decodeTileRangeInto(data, size, s.tiles, begin, end,
                            s.bitOffsets[begin], out);
    };
    const bool parallel =
        pool != nullptr && participants > 1 && n_tiles > 1;
    if (parallel)
        pool->parallelFor(n_tiles, 16, participants, decodeRange);
    else
        decodeRange(0, n_tiles, 0);
}

BdFrameStats
BdCodec::analyze(const ImageU8 &img) const
{
    BdFrameStats stats;
    stats.pixels = img.pixelCount();
    stats.headerBits = kMagicBits + 2 * kDimBits + kTileBits;
    for (const TileRect &rect :
         tileGrid(img.width(), img.height(), tileSize_)) {
        for (int c = 0; c < 3; ++c) {
            const BdChannelStats s = analyzeTileChannel(img, rect, c);
            stats.baseBits += s.baseBits;
            stats.metaBits += s.metaBits;
            stats.deltaBits += s.deltaBits;
        }
    }
    return stats;
}

} // namespace pce
