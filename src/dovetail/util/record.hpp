// Record types used throughout tests, benchmarks and examples: the paper
// evaluates on (32-bit key, 32-bit value) and (64-bit key, 64-bit value)
// pairs (Tab 3); kv32w adds a wide "database row" shape so the benchmark
// suite can sweep payload size (record bytes moved per key compared).
#pragma once

#include <cstdint>
#include <type_traits>

namespace dovetail {

// Records the radix kernels may scatter: they live in workspace-leased
// storage that no constructor ran on and move by assignment, never by
// memcpy. A trivial copy constructor and destructor make the type
// implicit-lifetime, so that storage may hold it. Beyond the trivially
// copyable types this admits std::pair / std::tuple members under
// libstdc++, whose user-provided operator= copies member-wise. It still
// excludes pair<const K, V> (not assignable), std::string members, and
// pairs / tuples holding a reference: their operator= writes through the
// reference rather than copying bytes, and a reference member deletes the
// default constructor, which is what rules them out here. Code that
// memcpy's records keeps the strict std::is_trivially_copyable gate
// (simd::stable_network_sort).
template <typename Rec>
concept radix_record =
    std::is_trivially_copyable_v<Rec> ||
    (std::is_trivially_copy_constructible_v<Rec> &&
     std::is_trivially_destructible_v<Rec> &&
     std::is_copy_assignable_v<Rec> && std::is_default_constructible_v<Rec>);

struct kv32 {
  std::uint32_t key;
  std::uint32_t value;
  friend bool operator==(const kv32&, const kv32&) = default;
};

struct kv64 {
  std::uint64_t key;
  std::uint64_t value;
  friend bool operator==(const kv64&, const kv64&) = default;
};

// Wide record: 32-bit key, 32-bit value, 24 bytes of inert payload — a
// 32-byte row. Same key/value layout contract as kv32 (generators fill
// key + value; value = input index), 4x the bytes per scatter.
struct kv32w {
  std::uint32_t key;
  std::uint32_t value;
  std::uint32_t payload[6];
  friend bool operator==(const kv32w&, const kv32w&) = default;
};

static_assert(sizeof(kv32) == 8);
static_assert(sizeof(kv64) == 16);
static_assert(sizeof(kv32w) == 32);

inline constexpr auto key_of_kv32 = [](const kv32& r) { return r.key; };
inline constexpr auto key_of_kv64 = [](const kv64& r) { return r.key; };
inline constexpr auto key_of_kv32w = [](const kv32w& r) { return r.key; };

// Generic typed-key record for the codec entry points (core/key_codec.hpp):
// any codec-covered key type plus the 32-bit stability-witness value
// (generators fill value = input index, like the kv* shapes).
template <typename K>
struct tkv {
  K key;
  std::uint32_t value;
  friend bool operator==(const tkv&, const tkv&) = default;
};

template <typename K>
inline constexpr auto key_of_tkv = [](const tkv<K>& r) { return r.key; };

// The value side of a kv32w row split SoA-style: everything but the key
// (28 bytes). sort_by_key(u32 keys, row28 values) is the SoA counterpart
// of sorting kv32w records, measured by the bench_suite codec-soa family.
struct row28 {
  std::uint32_t value;
  std::uint32_t payload[6];
  friend bool operator==(const row28&, const row28&) = default;
};

static_assert(sizeof(row28) == 28);

}  // namespace dovetail
