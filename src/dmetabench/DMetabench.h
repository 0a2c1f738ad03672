//===- dmetabench/DMetabench.h - Umbrella public API header -----*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-stop include for library users: the benchmark framework, the
/// simulated cluster, every file system model, analysis and charts.
/// See README.md for a quickstart and DESIGN.md for the architecture.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DMETABENCH_H
#define DMETABENCH_DMETABENCH_H

// Benchmark framework (thesis Ch. 3).
#include "core/EnvProfile.h"
#include "core/Master.h"
#include "core/Params.h"
#include "core/Results.h"
#include "core/Subtask.h"
#include "core/Worker.h"

// Simulated cluster runtime.
#include "cluster/Cluster.h"
#include "cluster/Placement.h"

// File system models (thesis Ch. 4 systems).
#include "dfs/CxfsFs.h"
#include "dfs/LocalFsModel.h"
#include "dfs/LustreFs.h"
#include "dfs/NfsFs.h"
#include "dfs/ReexportFs.h"
#include "dfs/ShardedFs.h"
#include "dfs/VolumeFs.h"

// Analysis and charts (thesis \S 3.3.9 / \S 3.3.10).
#include "analysis/Preprocess.h"
#include "analysis/TraceAnalysis.h"
#include "chart/Charts.h"

// Operation-level span tracing.
#include "sim/HappensBefore.h"
#include "sim/LockOrder.h"
#include "sim/ScheduleVerify.h"
#include "sim/Trace.h"

// Workload plugins and disturbance injectors (thesis \S 4.2.3).
#include "workload/Disturbance.h"
#include "workload/Plugin.h"

#endif // DMETABENCH_DMETABENCH_H
