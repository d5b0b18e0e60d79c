// Seeded input generators for bench_e2e.
//
// Every document a workload sends to the service is written here as plain
// text from the --seed value. No document goes through the library's own
// generators or serializer, so two commits that change those still see
// byte-identical inputs; the FNV-1a digest bench_e2e prints proves it. The
// random source is a hand-rolled splitmix64 for the same reason: the
// standard library's distributions are not portable across vendors.

#ifndef XMLREVAL_BENCH_E2E_INPUTS_H_
#define XMLREVAL_BENCH_E2E_INPUTS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/serde.h"

namespace xmlreval::bench_e2e {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }

  /// `count` distinct integers from [0, n), in draw order.
  std::vector<size_t> Distinct(size_t count, size_t n) {
    std::vector<size_t> picked;
    while (picked.size() < count) {
      size_t v = static_cast<size_t>(Uniform(0, static_cast<int64_t>(n) - 1));
      bool seen = false;
      for (size_t p : picked) seen |= p == v;
      if (!seen) picked.push_back(v);
    }
    return picked;
  }

 private:
  uint64_t state_;
};

/// Seed of the independent stream (`stream`, `index`) under `seed`.
inline uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index = 0) {
  Rng rng(seed ^ (stream * 0xD6E8FEB86659FD93ull) ^
          (index * 0x9E3779B97F4A7C15ull));
  rng.Next();
  return rng.Next();
}

/// Running FNV-1a digest of every input byte (the plan checksum's hash).
class Fnv1a {
 public:
  void Add(std::string_view bytes) { hash_ = common::Fnv1a(bytes, hash_); }
  void Add(uint64_t value) {
    hash_ = common::Fnv1a(&value, sizeof(value), hash_);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = common::kFnv1aOffset;
};

struct PoSpec {
  size_t items = 1000;
  bool bill_to = true;
  /// Item whose quantity is drawn from [100, 149]: valid under the relaxed
  /// Experiment 2 source schema (quantity < 200), invalid under Figure 2
  /// (quantity < 100). -1 for none.
  int64_t bad_item = -1;
};

/// A purchase order in the indented layout of the paper's examples
/// (~148 bytes and 8 nodes per item), valid under Figure 1a when it has no
/// bad item, and under the relaxed schema when it has a billTo.
inline std::string PurchaseOrderText(const PoSpec& spec, uint64_t seed) {
  Rng rng(seed);
  std::string out;
  out.reserve(700 + spec.items * 160);
  out += "<?xml version=\"1.0\"?>\n<purchaseOrder>\n";
  auto address = [&](const char* label) {
    out += "  <";
    out += label;
    out += ">\n    <name>Alice Smith</name>\n    <street>";
    out += std::to_string(rng.Uniform(100, 999));
    out += " Maple Street</street>\n    <city>Mill Valley</city>\n"
           "    <state>CA</state>\n    <zip>";
    out += std::to_string(rng.Uniform(10000, 99999));
    out += "</zip>\n    <country>US</country>\n  </";
    out += label;
    out += ">\n";
  };
  address("shipTo");
  if (spec.bill_to) address("billTo");
  out += "  <items>\n";
  char buffer[64];
  for (size_t i = 0; i < spec.items; ++i) {
    const bool bad = static_cast<int64_t>(i) == spec.bad_item;
    const int64_t quantity = bad ? rng.Uniform(100, 149) : rng.Uniform(1, 99);
    const int64_t cents = rng.Uniform(100, 99999);
    out += "    <item>\n      <productName>Widget-";
    out += std::to_string(i);
    out += "</productName>\n      <quantity>";
    out += std::to_string(quantity);
    std::snprintf(buffer, sizeof(buffer),
                  "</quantity>\n      <USPrice>%lld.%02lld</USPrice>\n",
                  static_cast<long long>(cents / 100),
                  static_cast<long long>(cents % 100));
    out += buffer;
    if (rng.Uniform(0, 1) == 1) {
      std::snprintf(buffer, sizeof(buffer),
                    "      <shipDate>2004-%02lld-%02lld</shipDate>\n",
                    static_cast<long long>(rng.Uniform(1, 12)),
                    static_cast<long long>(rng.Uniform(1, 28)));
      out += buffer;
    }
    out += "    </item>\n";
  }
  out += "  </items>\n</purchaseOrder>\n";
  return out;
}

// The streaming corpora. WIDE: the target subsumes every <rec> (identical
// declarations), so the streaming engine byte-skips them; it does not
// subsume <audit> (the source allows a <note> the target forbids), so audits
// are tokenized and validated. DEEP: the target drops the <pad> the source
// allows under <n>, so no subtree is subsumed and every level opens a frame.
inline constexpr const char* kWideSourceDtd =
    "<!ELEMENT r ((rec|audit)*)>\n"
    "<!ELEMENT rec (k, v+)>\n"
    "<!ELEMENT k (#PCDATA)>\n"
    "<!ELEMENT v (#PCDATA)>\n"
    "<!ELEMENT audit (who, note?)>\n"
    "<!ELEMENT who (#PCDATA)>\n"
    "<!ELEMENT note (#PCDATA)>\n";
inline constexpr const char* kWideTargetDtd =
    "<!ELEMENT r ((rec|audit)+)>\n"
    "<!ELEMENT rec (k, v+)>\n"
    "<!ELEMENT k (#PCDATA)>\n"
    "<!ELEMENT v (#PCDATA)>\n"
    "<!ELEMENT audit (who)>\n"
    "<!ELEMENT who (#PCDATA)>\n"
    "<!ELEMENT note (#PCDATA)>\n";
inline constexpr const char* kDeepSourceDtd =
    "<!ELEMENT d (n*)>\n"
    "<!ELEMENT n (n?, pad*)>\n"
    "<!ELEMENT pad EMPTY>\n";
inline constexpr const char* kDeepTargetDtd =
    "<!ELEMENT d (n*)>\n"
    "<!ELEMENT n (n?)>\n"
    "<!ELEMENT pad EMPTY>\n";

/// About `bytes` of records; every eighth is an <audit>. With `reject`, one
/// audit carries a <note>, so the target rejects the document.
inline std::string WideText(size_t bytes, bool reject, uint64_t seed) {
  Rng rng(seed);
  std::string out;
  out.reserve(bytes + 512);
  out += "<r>\n";
  std::vector<size_t> audit_ends;  // offsets just past each </who>
  for (size_t record = 0; out.size() < bytes; ++record) {
    if (record % 8 == 7) {
      out += "<audit><who>user-";
      out += std::to_string(rng.Uniform(0, 999));
      out += "</who>";
      audit_ends.push_back(out.size());
      out += "</audit>\n";
      continue;
    }
    out += "<rec><k>key-";
    out += std::to_string(record);
    out += "</k>";
    for (int64_t v = rng.Uniform(1, 8); v > 0; --v) {
      out += "<v>value-of-field-";
      out += std::to_string(rng.Uniform(100000, 999999));
      out += "</v>";
    }
    out += "</rec>\n";
  }
  out += "</r>\n";
  if (reject && !audit_ends.empty()) {
    size_t at = audit_ends[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(audit_ends.size()) - 1))];
    out.insert(at, "<note>rejected by the target</note>");
  }
  return out;
}

/// `chains` chains of `depth` nested <n> under one <d> root.
inline std::string DeepText(size_t chains, size_t depth) {
  std::string out;
  out.reserve(chains * depth * 7 + 16);
  out += "<d>";
  for (size_t c = 0; c < chains; ++c) {
    for (size_t i = 0; i < depth; ++i) out += "<n>";
    for (size_t i = 0; i < depth; ++i) out += "</n>";
  }
  out += "</d>\n";
  return out;
}

// The star feed of bench_update_stream: entry/note are neutral symbols of
// feed's content model and mutually indistinguishable, so renames, inserts
// and deletes among them are statically safe; meta is declared but
// unreferenced, so inserting it under feed is fatal.
inline constexpr const char* kStarDtd =
    "<!ELEMENT feed ((entry|note)*)>\n"
    "<!ELEMENT entry (#PCDATA)>\n"
    "<!ELEMENT note (#PCDATA)>\n"
    "<!ELEMENT meta (title)>\n"
    "<!ELEMENT title (#PCDATA)>\n";

inline std::string FeedText(size_t children) {
  std::string out = "<feed>";
  for (size_t i = 0; i < children; ++i) {
    out += (i % 3 != 0) ? "<entry>42</entry>" : "<note>n</note>";
  }
  out += "</feed>";
  return out;
}

}  // namespace xmlreval::bench_e2e

#endif  // XMLREVAL_BENCH_E2E_INPUTS_H_
