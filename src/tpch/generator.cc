#include "tpch/generator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "tpch/schema.h"

namespace silkroute::tpch {

namespace {

const char* const kRegionNames[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                    "MIDDLE EAST"};

struct NationSpec {
  const char* name;
  int64_t regionkey;
};

// The 25 TPC-H nations with their region assignment.
const NationSpec kNations[] = {
    {"ALGERIA", 0},    {"ARGENTINA", 1},     {"BRAZIL", 1},
    {"CANADA", 1},     {"EGYPT", 4},         {"ETHIOPIA", 0},
    {"FRANCE", 3},     {"GERMANY", 3},       {"INDIA", 2},
    {"INDONESIA", 2},  {"IRAN", 4},          {"IRAQ", 4},
    {"JAPAN", 2},      {"JORDAN", 4},        {"KENYA", 0},
    {"MOROCCO", 0},    {"MOZAMBIQUE", 0},    {"PERU", 1},
    {"CHINA", 2},      {"ROMANIA", 3},       {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},    {"RUSSIA", 3},        {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1},
};

const char* const kPartAdjectives[] = {
    "plated",   "anodized", "polished", "burnished", "brushed",
    "lacquered", "forged",  "hammered", "spotless",  "floral"};
const char* const kPartMaterials[] = {"brass", "steel", "nickel", "copper",
                                      "tin",   "zinc",  "chrome", "bronze",
                                      "iron",  "cobalt"};
const char* const kOrderStatus[] = {"F", "O", "P"};

std::string PartName(Random* rng) {
  std::string name = kPartAdjectives[rng->Uniform(0, 9)];
  name += " ";
  name += kPartMaterials[rng->Uniform(0, 9)];
  return name;
}

std::string DateString(Random* rng) {
  int64_t year = rng->Uniform(1992, 1998);
  int64_t month = rng->Uniform(1, 12);
  int64_t day = rng->Uniform(1, 28);
  return StringPrintf("%04lld-%02lld-%02lld", static_cast<long long>(year),
                      static_cast<long long>(month),
                      static_cast<long long>(day));
}

std::string PhoneString(Random* rng) {
  return StringPrintf("%02lld-%03lld-%03lld-%04lld",
                      static_cast<long long>(rng->Uniform(10, 34)),
                      static_cast<long long>(rng->Uniform(100, 999)),
                      static_cast<long long>(rng->Uniform(100, 999)),
                      static_cast<long long>(rng->Uniform(1000, 9999)));
}

}  // namespace

TpchRowCounts CountsForScale(double scale_factor) {
  auto scaled = [scale_factor](double base, size_t floor_count) {
    return std::max(floor_count,
                    static_cast<size_t>(std::llround(base * scale_factor)));
  };
  TpchRowCounts counts;
  counts.region = 5;
  counts.nation = 25;
  counts.supplier = scaled(1000, 10);
  counts.part = scaled(20000, 40);
  counts.partsupp = counts.part * 2;
  counts.customer = scaled(15000, 30);
  counts.orders = scaled(150000, 300);
  counts.lineitem = counts.orders * 4;  // average, realized per-order below
  return counts;
}

Status GenerateTpch(const TpchConfig& config, Database* db) {
  SILK_RETURN_IF_ERROR(CreateTpchSchema(db));
  Random rng(config.seed);
  const TpchRowCounts counts = CountsForScale(config.scale_factor);

  SILK_ASSIGN_OR_RETURN(Table * region, db->GetTable("Region"));
  region->Reserve(counts.region);
  for (size_t i = 0; i < counts.region; ++i) {
    SILK_RETURN_IF_ERROR(region->InsertUnchecked(
        Tuple{Value::Int64(static_cast<int64_t>(i)),
              Value::String(kRegionNames[i])}));
  }

  SILK_ASSIGN_OR_RETURN(Table * nation, db->GetTable("Nation"));
  nation->Reserve(counts.nation);
  for (size_t i = 0; i < counts.nation; ++i) {
    SILK_RETURN_IF_ERROR(nation->InsertUnchecked(
        Tuple{Value::Int64(static_cast<int64_t>(i)),
              Value::String(kNations[i].name),
              Value::Int64(kNations[i].regionkey)}));
  }

  // Suppliers. A leading fraction never receives parts so that the
  // <supplier> outer join has unmatched parents.
  SILK_ASSIGN_OR_RETURN(Table * supplier, db->GetTable("Supplier"));
  supplier->Reserve(counts.supplier);
  const size_t num_childless_suppliers = static_cast<size_t>(
      static_cast<double>(counts.supplier) * config.supplier_no_parts_fraction);
  for (size_t i = 1; i <= counts.supplier; ++i) {
    SILK_RETURN_IF_ERROR(supplier->InsertUnchecked(
        Tuple{Value::Int64(static_cast<int64_t>(i)),
              Value::String(StringPrintf("Supplier#%07zu", i)),
              Value::String(rng.NextString(
                  static_cast<size_t>(rng.Uniform(15, 30)))),
              Value::Int64(rng.Uniform(0, 24))}));
  }

  SILK_ASSIGN_OR_RETURN(Table * part, db->GetTable("Part"));
  part->Reserve(counts.part);
  for (size_t i = 1; i <= counts.part; ++i) {
    SILK_RETURN_IF_ERROR(part->InsertUnchecked(Tuple{
        Value::Int64(static_cast<int64_t>(i)), Value::String(PartName(&rng)),
        Value::String(StringPrintf("Mfgr#%lld",
                                   static_cast<long long>(rng.Uniform(1, 5)))),
        Value::String(StringPrintf("Brand#%lld%lld",
                                   static_cast<long long>(rng.Uniform(1, 5)),
                                   static_cast<long long>(rng.Uniform(1, 5)))),
        Value::Int64(rng.Uniform(1, 50)),
        Value::Double(900.0 + rng.NextDouble() * 100.0)}));
  }

  // PartSupp: each part gets 2 distinct suppliers drawn from suppliers that
  // are allowed to have parts.
  SILK_ASSIGN_OR_RETURN(Table * partsupp, db->GetTable("PartSupp"));
  partsupp->Reserve(counts.partsupp);
  std::vector<std::pair<int64_t, int64_t>> partsupp_pairs;
  partsupp_pairs.reserve(counts.partsupp);
  const int64_t first_eligible =
      static_cast<int64_t>(num_childless_suppliers) + 1;
  const int64_t last_supplier = static_cast<int64_t>(counts.supplier);
  for (size_t p = 1; p <= counts.part; ++p) {
    int64_t s1 = rng.Uniform(first_eligible, last_supplier);
    int64_t s2 = rng.Uniform(first_eligible, last_supplier);
    if (s2 == s1) s2 = (s2 < last_supplier) ? s2 + 1 : first_eligible;
    for (int64_t s : {s1, s2}) {
      SILK_RETURN_IF_ERROR(partsupp->InsertUnchecked(
          Tuple{Value::Int64(static_cast<int64_t>(p)),
                Value::Int64(s),
                Value::Int64(rng.Uniform(1, 9999))}));
      partsupp_pairs.emplace_back(static_cast<int64_t>(p), s);
    }
  }

  SILK_ASSIGN_OR_RETURN(Table * customer, db->GetTable("Customer"));
  customer->Reserve(counts.customer);
  for (size_t i = 1; i <= counts.customer; ++i) {
    SILK_RETURN_IF_ERROR(customer->InsertUnchecked(
        Tuple{Value::Int64(static_cast<int64_t>(i)),
              Value::String(StringPrintf("Customer#%09zu", i)),
              Value::String(rng.NextString(
                  static_cast<size_t>(rng.Uniform(15, 30)))),
              Value::Int64(rng.Uniform(0, 24)),
              Value::String(PhoneString(&rng))}));
  }

  SILK_ASSIGN_OR_RETURN(Table * orders, db->GetTable("Orders"));
  orders->Reserve(counts.orders);
  for (size_t i = 1; i <= counts.orders; ++i) {
    SILK_RETURN_IF_ERROR(orders->InsertUnchecked(
        Tuple{Value::Int64(static_cast<int64_t>(i)),
              Value::Int64(
                  rng.Uniform(1, static_cast<int64_t>(counts.customer))),
              Value::String(kOrderStatus[rng.Uniform(0, 2)]),
              Value::Double(1000.0 + rng.NextDouble() * 99000.0),
              Value::String(DateString(&rng))}));
  }

  // LineItem: 1-7 line items per order, each referencing a partsupp pair
  // from the "active" prefix (the tail fraction of pairs gets no orders).
  // Within one order, line items use distinct suppliers (and hence distinct
  // pairs), so an order contributes at most one <order> instance per
  // supplier/part in the paper's views.
  SILK_ASSIGN_OR_RETURN(Table * lineitem, db->GetTable("LineItem"));
  lineitem->Reserve(counts.lineitem);  // average; realized count is close
  const size_t num_active_pairs = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(partsupp_pairs.size()) *
                             (1.0 - config.partsupp_no_lineitem_fraction)));
  std::vector<int64_t> used_suppliers;
  for (size_t o = 1; o <= counts.orders; ++o) {
    int64_t items = rng.Uniform(1, 7);
    used_suppliers.clear();
    int64_t lno = 0;
    for (int64_t l = 1; l <= items; ++l) {
      // Rejection-sample a pair whose supplier is new to this order.
      const std::pair<int64_t, int64_t>* pair = nullptr;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto& candidate = partsupp_pairs[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(num_active_pairs) - 1))];
        if (std::find(used_suppliers.begin(), used_suppliers.end(),
                      candidate.second) == used_suppliers.end()) {
          pair = &candidate;
          break;
        }
      }
      if (pair == nullptr) continue;  // tiny databases: skip extra items
      used_suppliers.push_back(pair->second);
      ++lno;
      SILK_RETURN_IF_ERROR(lineitem->InsertUnchecked(
          Tuple{Value::Int64(static_cast<int64_t>(o)),
                Value::Int64(pair->first), Value::Int64(pair->second),
                Value::Int64(lno), Value::Int64(rng.Uniform(1, 50)),
                Value::Double(10.0 + rng.NextDouble() * 990.0)}));
    }
  }
  return Status::OK();
}

}  // namespace silkroute::tpch
