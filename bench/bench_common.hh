/**
 * @file
 * Shared setup for the figure/table reproduction benches.
 *
 * Every bench renders the six scenes at a per-eye resolution taken from
 * the environment (PCE_BENCH_WIDTH / PCE_BENCH_HEIGHT, default 512x512)
 * so users can scale runs from CI-sized to paper-sized. Threads default
 * to the hardware concurrency (PCE_BENCH_THREADS).
 */

#ifndef PCE_BENCH_BENCH_COMMON_HH
#define PCE_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "core/pipeline.hh"
#include "perception/discrimination.hh"
#include "perception/display.hh"
#include "render/scenes.hh"

namespace pce::bench {

/** Per-eye bench resolution from the environment. */
inline int
benchWidth()
{
    return static_cast<int>(envInt("PCE_BENCH_WIDTH", 512));
}

inline int
benchHeight()
{
    return static_cast<int>(envInt("PCE_BENCH_HEIGHT", 512));
}

inline int
benchThreads()
{
    const long def = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<int>(envInt("PCE_BENCH_THREADS", def));
}

/** Centered-fixation display geometry for the bench resolution. */
inline DisplayGeometry
benchDisplay(int w, int h)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return g;
}

/** The population discrimination model used across all benches. */
inline const AnalyticDiscriminationModel &
benchModel()
{
    static const AnalyticDiscriminationModel model;
    return model;
}

/** Median of @p v (upper median for even sizes; 0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
}

/** UTC timestamp, ISO 8601 — the `date` field of bench records. */
inline std::string
isoNowUtc()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

/**
 * Append @p record (one JSON object, pre-indented two spaces) to the
 * JSON array in @p path — the shared trajectory-file writer of every
 * runner that feeds BENCH_encoder.json (record schema: docs/PERF.md).
 * A missing/empty file starts a new array; a legacy single-object
 * snapshot is wrapped into an array with the new record appended
 * after it. Write-temp-then-rename so a crash or full disk mid-write
 * cannot destroy the accumulated trajectory.
 */
inline void
appendJsonRecord(const std::string &path, const std::string &record)
{
    std::string existing;
    {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        existing = ss.str();
    }
    const auto is_space = [](char c) {
        return c == '\n' || c == ' ' || c == '\t' || c == '\r';
    };
    while (!existing.empty() && is_space(existing.back()))
        existing.pop_back();
    std::size_t start = 0;
    while (start < existing.size() && is_space(existing[start]))
        ++start;
    existing.erase(0, start);

    std::string merged;
    if (!existing.empty() && existing.front() == '[' &&
        existing.back() == ']') {
        existing.pop_back();
        while (!existing.empty() && is_space(existing.back()))
            existing.pop_back();
        merged = existing == "["
                     ? "[\n" + record + "\n]\n"  // was an empty array
                     : existing + ",\n" + record + "\n]\n";
    } else if (!existing.empty() && existing.front() == '{' &&
               existing.back() == '}') {
        // Legacy single-object snapshot: preserve it as record zero.
        merged = "[\n" + existing + ",\n" + record + "\n]\n";
    } else {
        // Empty, truncated, or unrecognized content: wrapping it would
        // produce invalid JSON, so start the trajectory fresh.
        merged = "[\n" + record + "\n]\n";
    }

    const std::string tmp_path = path + ".tmp";
    {
        std::ofstream out(tmp_path, std::ios::trunc);
        out << merged;
        out.flush();
        if (!out) {
            std::cerr << "bench: failed writing " << tmp_path << "\n";
            std::remove(tmp_path.c_str());
            return;
        }
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0)
        std::cerr << "bench: failed replacing " << path << "\n";
}

} // namespace pce::bench

#endif // PCE_BENCH_BENCH_COMMON_HH
