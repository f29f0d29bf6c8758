# Driver parity: the same chains through dqmc_run as an in-process crowd and
# as a 2-worker fleet must fold to the same trajectory hash, and only the
# fleet run's manifest carries a "fleet" section. Crowds of one (the default
# walker_batch) and one crowd of all four chains must fold to that hash too.
# A chain stopped after an odd number of sweeps (an up sweep, so the next
# one runs down) and resumed from its checkpoint_out through checkpoint_in
# reaches the undisturbed run's hash.
#
#   cmake -DDRIVER=<dqmc_run> -DOUT=<dir> -P driver_parity.cmake
set(chains --walkers 4 --warmup 2 --sweeps 4 --seed 11)
set(common ${chains} --walker-batch 2)

execute_process(
  COMMAND ${DRIVER} ${common} --fleet-workers 2
          --crash-dump ${OUT}/parity_crash.json
          --metrics-json ${OUT}/parity_fleet.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE log ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet run failed (${rc}):\n${log}")
endif()
execute_process(
  COMMAND ${DRIVER} ${common}
          --crash-dump ${OUT}/parity_crash.json
          --metrics-json ${OUT}/parity_crowd.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE log ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "crowd run failed (${rc}):\n${log}")
endif()

file(READ ${OUT}/parity_fleet.json fleet)
file(READ ${OUT}/parity_crowd.json crowd)
string(JSON fleet_hash GET "${fleet}" manifest trajectory_hash)
string(JSON crowd_hash GET "${crowd}" manifest trajectory_hash)
if(NOT fleet_hash STREQUAL crowd_hash)
  message(FATAL_ERROR
          "trajectory_hash differs: fleet ${fleet_hash}, crowd ${crowd_hash}")
endif()
string(JSON fleet_chains ERROR_VARIABLE missing GET "${fleet}" fleet chains)
if(missing)
  message(FATAL_ERROR "fleet manifest has no fleet section: ${missing}")
endif()
string(JSON none ERROR_VARIABLE absent GET "${crowd}" fleet)
if(NOT absent)
  message(FATAL_ERROR "crowd manifest carries a fleet section")
endif()

foreach(width default 4)
  set(batch)
  if(NOT width STREQUAL "default")
    set(batch --walker-batch ${width})
  endif()
  execute_process(
    COMMAND ${DRIVER} ${chains} ${batch}
            --crash-dump ${OUT}/parity_crash.json
            --metrics-json ${OUT}/parity_w${width}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE log ERROR_VARIABLE log)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "walker_batch ${width} run failed (${rc}):\n${log}")
  endif()
  file(READ ${OUT}/parity_w${width}.json run)
  string(JSON hash GET "${run}" manifest trajectory_hash)
  if(NOT hash STREQUAL crowd_hash)
    message(FATAL_ERROR "trajectory_hash differs: walker_batch ${width} "
                        "${hash}, walker_batch 2 ${crowd_hash}")
  endif()
endforeach()
function(run_solo name)
  execute_process(
    COMMAND ${DRIVER} --seed 11 ${ARGN}
            --crash-dump ${OUT}/parity_crash.json
            --metrics-json ${OUT}/parity_${name}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE log ERROR_VARIABLE log)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} run failed (${rc}):\n${log}")
  endif()
  file(READ ${OUT}/parity_${name}.json run)
  string(JSON hash GET "${run}" manifest trajectory_hash)
  set(${name}_hash ${hash} PARENT_SCOPE)
endfunction()
run_solo(whole --warmup 1 --sweeps 4)
run_solo(leg --warmup 1 --sweeps 2 --checkpoint-out ${OUT}/parity_leg.ckpt)
file(READ ${OUT}/parity_leg.ckpt leg_ckpt)
if(NOT leg_ckpt MATCHES "\ndirection down\n")
  message(FATAL_ERROR "a checkpoint after 3 sweeps must resume downward")
endif()
run_solo(resumed --warmup 0 --sweeps 2 --checkpoint-in ${OUT}/parity_leg.ckpt)
if(NOT resumed_hash STREQUAL whole_hash)
  message(FATAL_ERROR "trajectory_hash differs: resumed after an up sweep "
                      "${resumed_hash}, undisturbed ${whole_hash}")
endif()

message(STATUS "trajectory_hash ${fleet_hash} on the fleet and at "
               "walker_batch default, 2 and 4; fleet ran ${fleet_chains} "
               "chains; ${whole_hash} resumed after an up sweep")
