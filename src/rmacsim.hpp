// Umbrella header: the whole public API of the RMAC reproduction.
//
//   #include "rmacsim.hpp"
//
// pulls in the simulation core, the PHY (medium + busy-tone channels), the
// MAC protocols (RMAC and the baselines), the BLESS-lite routing layer, and
// the experiment harness.  Fine-grained includes remain available for
// consumers that want a single subsystem.
#pragma once

#include "geom/vec2.hpp"
#include "mac/backoff.hpp"
#include "mac/bmmm/bmmm_protocol.hpp"
#include "mac/bmw/bmw_protocol.hpp"
#include "mac/dcf/dcf_protocol.hpp"
#include "mac/frame_builders.hpp"
#include "mac/lamm/lamm_protocol.hpp"
#include "mac/mac_protocol.hpp"
#include "mac/mx/mx_protocol.hpp"
#include "mac/rmac/rmac_protocol.hpp"
#include "mobility/mobility.hpp"
#include "net/bless_tree.hpp"
#include "net/multicast_app.hpp"
#include "phy/frame.hpp"
#include "phy/medium.hpp"
#include "phy/params.hpp"
#include "phy/radio.hpp"
#include "phy/tone_channel.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network_builder.hpp"
#include "scenario/node.hpp"
#include "sim/ids.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "stats/metrics.hpp"
#include "stats/percentile.hpp"
