# dqmc_run on bad input: an unknown flag, a malformed number, the removed
# `measure` key, the deleted `fleet_steal` flag and key, out-of-range config
# and supervisor values and --help each
# exit with status 2 and print exactly one stderr line, `dqmc_run:
# <message>`, that names the flag or key. Input errors carry the message
# alone: a source location ("x.cpp:") or a checked expression ("check `")
# on stderr fails the case. A `checkpoint_in` that is missing, of another
# version, truncated or holding the all-zero RNG state is bad input too: it
# exits 2 naming the path and the fault, without a retry. A
# `checkpoint_out` in a missing directory is not skipped: the run exits
# with status 1 and one such line naming the path.
#
#   cmake -DDRIVER=<dqmc_run> -P bad_input.cmake
function(expect_exit code key)
  execute_process(COMMAND ${DRIVER} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected ${code}:\n${out}${err}")
  endif()
  if(NOT err MATCHES "^dqmc_run: [^\n]*${key}[^\n]*\n$")
    message(FATAL_ERROR "'${ARGN}' stderr is not one 'dqmc_run: ...' line "
                        "naming ${key}:\n${err}")
  endif()
  if(err MATCHES "check `" OR err MATCHES "\\.cpp:")
    message(FATAL_ERROR "'${ARGN}' stderr carries a source location or a "
                        "checked expression:\n${err}")
  endif()
endfunction()

function(expect_rejected key)
  expect_exit(2 ${key} ${ARGN})
endfunction()

expect_rejected(nosuch --nosuch 1)
expect_rejected(lx --lx abc)
expect_rejected(measure --measure fft)
expect_rejected(walker_batch --walker-batch 0)
expect_rejected(max_retries --max-retries -1)
expect_rejected(cluster_size --cluster-size 0)
expect_rejected(help --help)
# Work stealing is deleted: its flag and key are unknown like any other.
expect_rejected(fleet-steal --fleet-steal 0)
file(WRITE bad_input_steal.in "fleet_workers = 2\nfleet_steal = 1\n")
expect_rejected(fleet_steal --config bad_input_steal.in)
set(small_run --lx 2 --beta 1 --slices 8 --warmup 1 --sweeps 2)
expect_rejected(no_such.ckpt ${small_run} --checkpoint-in no_such.ckpt)
file(WRITE bad_input_v1.ckpt "dqmcpp-checkpoint v1\nslices 8\nsites 4\n")
expect_rejected(v1 ${small_run} --checkpoint-in bad_input_v1.ckpt)
file(WRITE bad_input_cut.ckpt "dqmcpp-checkpoint v3\nslices 8\n")
expect_rejected(bad_input_cut.ckpt ${small_run}
                --checkpoint-in bad_input_cut.ckpt)
string(REPEAT "++++\n" 8 rows)
file(WRITE bad_input_zero_rng.ckpt "dqmcpp-checkpoint v3\nslices 8\n"
     "sites 4\nrng 0 0 0 0\nsign 1\ndirection up\nfield\n${rows}")
expect_rejected(rng ${small_run} --checkpoint-in bad_input_zero_rng.ckpt)
expect_exit(1 no_such_dir/x.ckpt --warmup 1 --sweeps 2
            --checkpoint-out no_such_dir/x.ckpt)
message(STATUS "dqmc_run rejects bad input and checkpoint_in files with "
               "exit 2 and fails a run whose checkpoint_out cannot be "
               "written with exit 1")
