// Umbrella header: the whole public surface in one include.
//
//   #include "ssq.hpp"
//
// Fine-grained headers remain the recommended includes for build-time-
// sensitive projects; see docs/api.md for the map.
#pragma once

#include "baselines/hanson_sq.hpp"
#include "baselines/java5_sq.hpp"
#include "baselines/naive_sq.hpp"
#include "core/channel.hpp"
#include "core/dual_queue_basic.hpp"
#include "core/dual_stack_basic.hpp"
#include "core/eliminating_sq.hpp"
#include "core/linked_transfer_queue.hpp"
#include "core/select.hpp"
#include "core/synchronous_queue.hpp"
#include "executor/pools.hpp"
#include "executor/thread_pool_executor.hpp"
