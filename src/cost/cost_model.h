// Storage cost model from paper section 3: TCIO and TCO.
//
// TCIO: "Total Cost of I/O", where 1.0 is the amount of I/O a standard HDD
// sustains per second. A job with TCIO = 2 needs two HDDs for its lifetime.
// Jobs served from SSD have TCIO 0.
//
// TCO (per device class DEV in {HDD, SSD}):
//   TCO_DEV   = cost_byte + cost_network + cost_server + cost_specific
//   cost_byte     = byte_cost_DEV * size * duration
//   cost_network  = network_cost_rate * IO_throughput * duration
//   cost_server   = server_cost_rate_HDD * TCIO * duration          (HDD)
//                 = server_cost_rate_SSD * IO_throughput_SSD        (SSD;
//                   correlates with bytes transmitted, paper section 3)
//   cost_specific = device_cost_rate_HDD * TCIO * duration          (HDD)
//                 = wearout_cost_rate_SSD * total_written_bytes     (SSD)
//
// All rates convert to abstract dollars. Defaults are calibrated to public
// hardware price points (README.md, "Design notes: Cost-model price
// points") so that the *shape* of the paper's results is preserved:
// I/O-dense, short-lived jobs save cost on SSD, while large, cold,
// long-lived jobs are cheaper on HDD.
#pragma once

#include <cstdint>

#include "cost/io_profile.h"

namespace byom::cost {

// Dollar-conversion rates (paper's `*_cost_rate` constants).
struct Rates {
  // $ per byte-second of occupied capacity.
  double byte_cost_hdd = 1.1e-17;  // ~$0.03 / GiB-month
  double byte_cost_ssd = 4.5e-17;  // ~$0.12 / GiB-month
  // $ per byte moved over the network (device independent).
  double network_cost_rate = 1.5e-12;
  // $ per (TCIO x second): amortized HDD server/slot and device cost.
  double server_cost_rate_hdd = 2.0e-6;
  double device_cost_rate_hdd = 1.2e-6;
  // $ per byte transmitted from SSD (flash server amortization).
  double server_cost_rate_ssd = 6.0e-14;
  // $ per byte written to SSD (P/E wearout; ~$500 drive / 3 PB TBW).
  double wearout_cost_rate_ssd = 1.7e-13;
  // Operations per second one standard HDD sustains (defines TCIO = 1.0).
  double hdd_iops_capacity = 150.0;
};

// Inputs the cost model needs about one job.
struct JobCostInputs {
  std::uint64_t peak_bytes = 0;  // storage footprint (bytes)
  double duration = 0.0;         // lifetime in seconds
  IoProfile io;
};

class CostModel {
 public:
  explicit CostModel(Rates rates = Rates{}) : rates_(rates) {}

  const Rates& rates() const { return rates_; }

  // TCIO of the job if placed on HDD (dimensionless; HDD-equivalents).
  double tcio_hdd(const JobCostInputs& j) const;

  // Integrated TCIO over the job's lifetime (HDD-seconds). This is the
  // quantity aggregated for "TCIO savings percentage".
  double tcio_seconds_hdd(const JobCostInputs& j) const;

  // Average I/O throughput in bytes/second over the job lifetime.
  double io_throughput(const JobCostInputs& j) const;

  // I/O density: total disk I/O across the job lifetime divided by its
  // maximum storage footprint (paper section 4.2), in ops per GiB.
  double io_density(const JobCostInputs& j) const;

  // Full TCO of running the job entirely on HDD / SSD.
  double cost_hdd(const JobCostInputs& j) const;
  double cost_ssd(const JobCostInputs& j) const;

  // TCO saving from placing on SSD rather than HDD (can be negative).
  double tco_saving(const JobCostInputs& j) const {
    return cost_hdd(j) - cost_ssd(j);
  }

  // Cost of a mixed placement: fraction `ssd_share` of the job (footprint
  // and I/O alike) lives on SSD for `ssd_time_share` of its lifetime, the
  // rest on HDD. Models both partial-fit spillover (ssd_time_share = 1,
  // ssd_share = fit fraction) and TTL eviction (ssd_share = 1,
  // ssd_time_share = resident fraction). Assumes I/O is uniform in time.
  double cost_mixed(const JobCostInputs& j, double ssd_share,
                    double ssd_time_share) const;

  // TCIO-seconds actually hitting HDDs under the same mixed placement.
  double tcio_seconds_mixed(const JobCostInputs& j, double ssd_share,
                            double ssd_time_share) const;

 private:
  Rates rates_;
};

}  // namespace byom::cost
