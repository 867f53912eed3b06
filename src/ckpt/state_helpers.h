/**
 * @file
 * Serialization helpers for the recurring state shapes in this
 * codebase: direct-mapped counter tables, shift registers, and
 * unordered maps.
 *
 * Map serialization sorts keys first. Unordered-map iteration order is
 * implementation-defined, and the bit-exact-resume guarantee extends to
 * the checkpoint bytes themselves (same state => same file => same
 * CRC), so every container with nondeterministic order is canonicalized
 * before encoding.
 */

#ifndef CONFSIM_CKPT_STATE_HELPERS_H
#define CONFSIM_CKPT_STATE_HELPERS_H

#include <algorithm>
#include <vector>

#include "ckpt/state_io.h"
#include "util/fixed_vector_table.h"
#include "util/saturating_counter.h"
#include "util/shift_register.h"

namespace confsim {

/** Save a table of saturating counters (size-guarded). */
inline void
saveCounterTable(StateWriter &out,
                 const FixedVectorTable<SaturatingCounter> &table)
{
    out.putU64(table.size());
    out.reserve(4 * table.size());
    for (const auto &counter : table)
        out.putU32(counter.value());
}

/** Restore a saveCounterTable() snapshot into a same-sized table. */
inline void
loadCounterTable(StateReader &in,
                 FixedVectorTable<SaturatingCounter> &table)
{
    in.expectU64(table.size(), "counter table size");
    for (auto &counter : table)
        counter.set(in.getU32());
}

/** Save a shift register's contents (width-guarded). */
inline void
saveShiftRegister(StateWriter &out, const ShiftRegister &reg)
{
    out.putU64(reg.width());
    out.putU64(reg.value());
}

/** Restore a saveShiftRegister() snapshot. */
inline void
loadShiftRegister(StateReader &in, ShiftRegister &reg)
{
    in.expectU64(reg.width(), "shift register width");
    reg.set(in.getU64());
}

/**
 * Save an unordered map with u64 keys in sorted-key order. @p putValue
 * is invoked as putValue(writer, value) for each entry.
 */
template <typename Map, typename PutValue>
void
saveSortedMap(StateWriter &out, const Map &map, PutValue putValue)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(map.size());
    for (const auto &entry : map)
        keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    out.putU64(keys.size());
    for (const auto &key : keys) {
        out.putU64(key);
        putValue(out, map.at(key));
    }
}

/**
 * Restore a saveSortedMap() snapshot. @p getValue is invoked as
 * getValue(reader) and must return the mapped value.
 */
template <typename Map, typename GetValue>
void
loadMap(StateReader &in, Map &map, GetValue getValue)
{
    map.clear();
    const std::uint64_t count = in.getU64();
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t key = in.getU64();
        map[key] = getValue(in);
    }
}

} // namespace confsim

#endif // CONFSIM_CKPT_STATE_HELPERS_H
