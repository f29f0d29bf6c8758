# A fleet run reads as one run. In a fresh directory, a 2-worker fleet with
# a device fault injected into worker 0 must write exactly one telemetry
# stream, whose last record counts every chain's sweeps, and worker 0's
# crash dump at the path the manifest's worker table names.
#
#   cmake -DDRIVER=<dqmc_run> -DOUT=<dir> -P fleet_one_run.cmake
set(dir ${OUT}/fleet_one_run)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

execute_process(
  COMMAND ${DRIVER} --lx 4 --beta 2 --slices 16 --warmup 2 --sweeps 6
          --walkers 4 --walker-batch 2 --fleet-workers 2
          --worker-failpoint backend.enqueue:40 --failpoint-worker 0
          --metrics-json m.json --telemetry-jsonl t.jsonl --crash-dump d.json
  WORKING_DIRECTORY ${dir}
  RESULT_VARIABLE rc OUTPUT_VARIABLE log ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet run failed (${rc}):\n${log}")
endif()

file(GLOB streams RELATIVE ${dir} ${dir}/*.jsonl)
if(NOT streams STREQUAL "t.jsonl")
  message(FATAL_ERROR "expected one telemetry stream t.jsonl, found: "
                      "${streams}")
endif()
file(STRINGS ${dir}/t.jsonl records)
list(GET records -1 last)
string(JSON done GET "${last}" sweeps_done)
if(NOT done EQUAL 32)  # 4 chains x (2 + 6) sweeps
  message(FATAL_ERROR "last telemetry record has sweeps_done ${done}, "
                      "expected 32: ${last}")
endif()

file(READ ${dir}/m.json manifest)
string(JSON named ERROR_VARIABLE missing
       GET "${manifest}" fleet worker_table 0 crash_dump)
if(missing)
  message(FATAL_ERROR "worker_table[0] names no crash dump: ${missing}")
endif()
file(GLOB dumps RELATIVE ${dir} ${dir}/d.w0.p*.json)
if(NOT dumps MATCHES "^d\\.w0\\.p[0-9]+\\.json$")
  message(FATAL_ERROR "expected one crash dump d.w0.p<pid>.json, found: "
                      "${dumps}\n${log}")
endif()
if(NOT named STREQUAL dumps)
  message(FATAL_ERROR "worker_table[0].crash_dump is ${named}, but worker 0 "
                      "dumped to ${dumps}")
endif()

message(STATUS "one telemetry stream at ${done} sweeps; worker 0 dumped to "
               "${dumps}")
