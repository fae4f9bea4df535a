// Shared fixtures: small synthetic datasets reused across test suites.
//
// Building a MeasurementDataset is the expensive part of most integration
// tests, so the helpers below construct each configuration once per process
// and hand out const references.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "dataset/measurement.hpp"
#include "io/json.hpp"

namespace mtd::test {

/// A tiny network + 2-day trace with the per-cell store enabled. Fast to
/// build; enough sessions for the popular services only.
inline const MeasurementDataset& tiny_dataset() {
  static const MeasurementDataset dataset = [] {
    NetworkConfig net_config;
    net_config.num_bs = 10;
    net_config.last_decile_rate = 30.0;
    Rng rng(123);
    static const Network network = Network::build(net_config, rng);
    TraceConfig trace;
    trace.num_days = 2;
    trace.seed = 321;
    MeasurementConfig mc;
    mc.store_per_cell = true;
    return collect_dataset(network, trace, mc);
  }();
  return dataset;
}

/// A small-but-representative dataset: enough sessions that every catalogue
/// service can be fitted, spanning a full week (both day types), all
/// regions, cities and RATs.
inline const MeasurementDataset& small_dataset() {
  static const MeasurementDataset dataset = [] {
    NetworkConfig net_config;
    net_config.num_bs = 60;
    net_config.last_decile_rate = 50.0;
    Rng rng(7);
    static const Network network = Network::build(net_config, rng);
    TraceConfig trace;
    trace.num_days = 7;
    trace.seed = 99;
    return collect_dataset(network, trace);
  }();
  return dataset;
}

/// The network backing small_dataset().
inline const Network& small_network() { return small_dataset().network(); }

/// The node of `doc` at `path`: object keys, where an array value steps
/// into its first element. For tests that mutate one field of a document.
inline Json& json_node(Json& doc, const std::vector<const char*>& path) {
  Json* node = &doc;
  for (const char* key : path) {
    node = &node->as_object().at(key);
    if (node->is_array()) node = &node->as_array().at(0);
  }
  return *node;
}

/// Whether `run` throws InvalidArgument whose message names `field`.
template <typename Run>
::testing::AssertionResult rejects(const Run& run, const std::string& field) {
  try {
    run();
  } catch (const InvalidArgument& e) {
    if (std::string(e.what()).find(field) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "the message does not name " << field << ": " << e.what();
  }
  return ::testing::AssertionFailure() << "accepted a bad " << field;
}

}  // namespace mtd::test
