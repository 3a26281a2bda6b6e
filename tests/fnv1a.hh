/**
 * @file
 * The document digest perfbench/digests.json records, for tests that
 * pin a document's bytes without a checked-in golden.
 */

#ifndef AOSD_TESTS_FNV1A_HH
#define AOSD_TESTS_FNV1A_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace aosd
{

/** 64-bit FNV-1a of `text` as 16 hex digits. */
inline std::string
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace aosd

#endif // AOSD_TESTS_FNV1A_HH
