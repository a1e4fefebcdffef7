# End-to-end exercise of the mapit CLI: synthesize datasets, run MAP-IT on
# them, print stats, and check the outputs exist and parse.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${MAPIT_BIN} simulate --out ${WORK_DIR} --seed 9
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed (${rc}): ${out}${err}")
endif()

foreach(f traces.txt rib.txt relationships.txt as2org.txt ixps.txt)
  if(NOT EXISTS ${WORK_DIR}/${f})
    message(FATAL_ERROR "simulate did not write ${f}")
  endif()
endforeach()

execute_process(
  COMMAND ${MAPIT_BIN} run
    --traces ${WORK_DIR}/traces.txt
    --rib ${WORK_DIR}/rib.txt
    --relationships ${WORK_DIR}/relationships.txt
    --as2org ${WORK_DIR}/as2org.txt
    --ixps ${WORK_DIR}/ixps.txt
    --output ${WORK_DIR}/inferences.txt
    --uncertain ${WORK_DIR}/uncertain.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run failed (${rc}): ${out}${err}")
endif()
if(NOT err MATCHES "confident inferences")
  message(FATAL_ERROR "run did not report inference counts: ${err}")
endif()

file(STRINGS ${WORK_DIR}/inferences.txt inference_lines)
list(LENGTH inference_lines n)
if(n LESS 10)
  message(FATAL_ERROR "suspiciously few inferences written (${n} lines)")
endif()

execute_process(
  COMMAND ${MAPIT_BIN} stats --traces ${WORK_DIR}/traces.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "graph interfaces")
  message(FATAL_ERROR "stats failed (${rc}): ${out}${err}")
endif()

# Unknown arguments must be rejected.
execute_process(
  COMMAND ${MAPIT_BIN} run --traces ${WORK_DIR}/traces.txt
          --rib ${WORK_DIR}/rib.txt --bogus-flag
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown argument was not rejected")
endif()

# A bounded integer flag outside its range, or not a number, exits 2 with
# one line naming the flag, what it expects and the value given.
execute_process(
  COMMAND ${MAPIT_BIN} run --traces ${WORK_DIR}/traces.txt
          --rib ${WORK_DIR}/rib.txt --threads 2000
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err STREQUAL
   "--threads expects an integer in [0, 1024], got '2000'\n")
  message(FATAL_ERROR "run --threads 2000: (${rc}) ${err}")
endif()
execute_process(
  COMMAND ${MAPIT_BIN} serve ${WORK_DIR}/none.bin --max-connections 0
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err STREQUAL
   "--max-connections expects an integer in [1, 65536], got '0'\n")
  message(FATAL_ERROR "serve --max-connections 0: (${rc}) ${err}")
endif()
execute_process(
  COMMAND ${MAPIT_BIN} ingest --traces ${WORK_DIR}/traces.txt
          --rib ${WORK_DIR}/rib.txt --journal ${WORK_DIR}/none.journal
          --out ${WORK_DIR}/none.bin --batch-lines 1k
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err STREQUAL
   "--batch-lines expects an integer in [1, 2^24], got '1k'\n")
  message(FATAL_ERROR "ingest --batch-lines 1k: (${rc}) ${err}")
endif()

message(STATUS "cli end-to-end OK (${n} inference lines)")

# Truth file + eval subcommand.
if(NOT EXISTS ${WORK_DIR}/truth.txt)
  message(FATAL_ERROR "simulate did not write truth.txt")
endif()
execute_process(
  COMMAND ${MAPIT_BIN} eval --inferences ${WORK_DIR}/inferences.txt
          --truth ${WORK_DIR}/truth.txt --target 1000
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "matched by inferences")
  message(FATAL_ERROR "eval failed (${rc}): ${out}${err}")
endif()

# Unknown subcommands must exit nonzero with usage on stderr, stdout clean.
execute_process(
  COMMAND ${MAPIT_BIN} frobnicate
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown subcommand was not rejected")
endif()
if(NOT err MATCHES "usage:" OR NOT out STREQUAL "")
  message(FATAL_ERROR "unknown subcommand: usage must go to stderr only "
          "(stdout='${out}', stderr='${err}')")
endif()

# Snapshot -> query round trip: build the artifact twice (different thread
# counts) and require byte-identical files, then check query answers match
# the run output line for line.
execute_process(
  COMMAND ${MAPIT_BIN} snapshot
    --traces ${WORK_DIR}/traces.txt
    --rib ${WORK_DIR}/rib.txt
    --relationships ${WORK_DIR}/relationships.txt
    --as2org ${WORK_DIR}/as2org.txt
    --ixps ${WORK_DIR}/ixps.txt
    --out ${WORK_DIR}/snapshot.bin
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "crc32")
  message(FATAL_ERROR "snapshot failed (${rc}): ${out}${err}")
endif()

execute_process(
  COMMAND ${MAPIT_BIN} snapshot
    --traces ${WORK_DIR}/traces.txt
    --rib ${WORK_DIR}/rib.txt
    --relationships ${WORK_DIR}/relationships.txt
    --as2org ${WORK_DIR}/as2org.txt
    --ixps ${WORK_DIR}/ixps.txt
    --out ${WORK_DIR}/snapshot2.bin
    --threads 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second snapshot failed (${rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/snapshot.bin ${WORK_DIR}/snapshot2.bin
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "snapshot artifacts differ across thread counts")
endif()

# Turn every inference line into a lookup query; answers must reproduce the
# run output exactly.
set(queries "")
set(expected "")
foreach(line IN LISTS inference_lines)
  if(line MATCHES "^#")
    continue()
  endif()
  string(REPLACE "|" ";" fields "${line}")
  list(GET fields 0 q_addr)
  list(GET fields 1 q_dir)
  string(APPEND queries "lookup ${q_addr} ${q_dir}\n")
  string(APPEND expected "${line}\n")
endforeach()
file(WRITE ${WORK_DIR}/queries.txt "${queries}")
execute_process(
  COMMAND ${MAPIT_BIN} query ${WORK_DIR}/snapshot.bin
  INPUT_FILE ${WORK_DIR}/queries.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "query failed (${rc}): ${err}")
endif()
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "query answers diverge from run output")
endif()

# stats must answer and name the artifact version.
file(WRITE ${WORK_DIR}/stats_query.txt "stats\n")
execute_process(
  COMMAND ${MAPIT_BIN} query ${WORK_DIR}/snapshot.bin
  INPUT_FILE ${WORK_DIR}/stats_query.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "version=1" OR NOT out MATCHES "crc32=")
  message(FATAL_ERROR "query stats failed (${rc}): ${out}")
endif()

# A truncated artifact must be rejected with a diagnostic, not crash.
file(SIZE ${WORK_DIR}/snapshot.bin snap_size)
math(EXPR trunc_size "${snap_size} - 7")
find_program(DD_TOOL dd)
if(DD_TOOL)
  execute_process(
    COMMAND ${DD_TOOL} if=${WORK_DIR}/snapshot.bin
            of=${WORK_DIR}/truncated.bin bs=1 count=${trunc_size}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  execute_process(
    COMMAND ${MAPIT_BIN} query ${WORK_DIR}/truncated.bin
    INPUT_FILE ${WORK_DIR}/stats_query.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "truncated snapshot was accepted")
  endif()
  if(NOT err MATCHES "snapshot")
    message(FATAL_ERROR "truncated snapshot rejection lacks diagnostic: ${err}")
  endif()
endif()

# `serve` has one server, so the flag that picked the other one is an
# unknown argument (exit 2), rejected before any socket is bound.
execute_process(
  COMMAND ${MAPIT_BIN} serve ${WORK_DIR}/snapshot.bin --async
  TIMEOUT 30
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown argument: --async")
  message(FATAL_ERROR "serve --async should exit 2 as an unknown argument, "
          "got ${rc}: ${err}")
endif()

message(STATUS "cli snapshot/query OK")

# `paths` takes the run options: the explicit defaults print exactly what
# no options print, and the other engine switches are accepted.
set(paths_flags
  --traces ${WORK_DIR}/traces.txt
  --rib ${WORK_DIR}/rib.txt
  --relationships ${WORK_DIR}/relationships.txt
  --as2org ${WORK_DIR}/as2org.txt
  --ixps ${WORK_DIR}/ixps.txt
  --limit 5)
execute_process(
  COMMAND ${MAPIT_BIN} paths ${paths_flags}
  RESULT_VARIABLE rc OUTPUT_VARIABLE paths_default ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT paths_default MATCHES "trace to|no traces")
  message(FATAL_ERROR "paths failed (${rc}): ${paths_default}${err}")
endif()
execute_process(
  COMMAND ${MAPIT_BIN} paths ${paths_flags} --f 0.5 --remove-rule majority
  RESULT_VARIABLE rc OUTPUT_VARIABLE paths_explicit ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT paths_explicit STREQUAL paths_default)
  message(FATAL_ERROR "paths with the default run options differs from "
          "paths without them (${rc}): ${paths_explicit}${err}")
endif()
execute_process(
  COMMAND ${MAPIT_BIN} paths ${paths_flags} --no-stub
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "paths --no-stub failed (${rc}): ${err}")
endif()

message(STATUS "cli paths OK")

# Checkpoint/resume through the real binary: stop at every run boundary
# (one boundary per invocation via --stop-after 1, exit code 5), chain
# --resume until the run completes, and require the final inferences to be
# byte-identical to the uninterrupted run's output above.
set(ckpt_dir ${WORK_DIR}/ckpt)
set(run_flags
  --traces ${WORK_DIR}/traces.txt
  --rib ${WORK_DIR}/rib.txt
  --relationships ${WORK_DIR}/relationships.txt
  --as2org ${WORK_DIR}/as2org.txt
  --ixps ${WORK_DIR}/ixps.txt
  --output ${WORK_DIR}/resumed_inferences.txt
  --uncertain ${WORK_DIR}/resumed_uncertain.txt)

execute_process(
  COMMAND ${MAPIT_BIN} run ${run_flags}
          --checkpoint-dir ${ckpt_dir} --stop-after 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 5)
  message(FATAL_ERROR "--stop-after should exit 5, got ${rc}: ${err}")
endif()
if(NOT EXISTS ${ckpt_dir}/engine.ckpt)
  message(FATAL_ERROR "interrupted run left no checkpoint")
endif()
if(NOT err MATCHES "--resume")
  message(FATAL_ERROR "interrupted run did not say how to resume: ${err}")
endif()

set(resume_rc 5)
set(legs 0)
while(resume_rc EQUAL 5)
  math(EXPR legs "${legs} + 1")
  if(legs GREATER 50)
    message(FATAL_ERROR "resume chain did not terminate in 50 legs")
  endif()
  execute_process(
    COMMAND ${MAPIT_BIN} run ${run_flags}
            --resume ${ckpt_dir} --stop-after 1
    RESULT_VARIABLE resume_rc OUTPUT_QUIET ERROR_VARIABLE err)
endwhile()
if(NOT resume_rc EQUAL 0)
  message(FATAL_ERROR "resume leg failed (${resume_rc}): ${err}")
endif()
if(legs LESS 2)
  message(FATAL_ERROR "resume chain too short to prove anything (${legs})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/inferences.txt ${WORK_DIR}/resumed_inferences.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kill/resume chain diverged from uninterrupted run")
endif()
if(EXISTS ${ckpt_dir}/engine.ckpt)
  message(FATAL_ERROR "completed run did not remove its checkpoint")
endif()

# A resume whose inputs changed must be rejected with exit code 4.
execute_process(
  COMMAND ${MAPIT_BIN} run ${run_flags}
          --checkpoint-dir ${ckpt_dir} --stop-after 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 5)
  message(FATAL_ERROR "checkpoint seeding for mismatch test failed (${rc})")
endif()
file(READ ${WORK_DIR}/traces.txt trace_text)
file(WRITE ${WORK_DIR}/traces_edited.txt "${trace_text}\n")
execute_process(
  COMMAND ${MAPIT_BIN} run
    --traces ${WORK_DIR}/traces_edited.txt
    --rib ${WORK_DIR}/rib.txt
    --relationships ${WORK_DIR}/relationships.txt
    --as2org ${WORK_DIR}/as2org.txt
    --ixps ${WORK_DIR}/ixps.txt
    --output ${WORK_DIR}/mismatch.txt
    --resume ${ckpt_dir}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR "fingerprint mismatch should exit 4, got ${rc}: ${err}")
endif()
if(NOT err MATCHES "corpus")
  message(FATAL_ERROR "mismatch diagnostic does not name the corpus: ${err}")
endif()

# Contradictory checkpoint flags are a usage error (exit 2).
execute_process(
  COMMAND ${MAPIT_BIN} run ${run_flags}
          --checkpoint-dir ${ckpt_dir} --resume ${ckpt_dir}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "conflicting checkpoint flags should exit 2, got ${rc}")
endif()
# ...and budget flags without a checkpoint directory are too.
execute_process(
  COMMAND ${MAPIT_BIN} run ${run_flags} --deadline 10
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--deadline without checkpointing should exit 2, "
          "got ${rc}")
endif()

message(STATUS "cli checkpoint/resume OK (${legs} resume legs)")

# `mapit supervise` is configured by its spec alone: a flag named after a
# `set` key is an unknown argument (exit 2), reported before the spec is
# checked for workers.
file(WRITE ${WORK_DIR}/EMPTY.spec "# no workers\n")
execute_process(
  COMMAND ${MAPIT_BIN} supervise ${WORK_DIR}/EMPTY.spec --drain 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown argument: --drain")
  message(FATAL_ERROR "supervise --drain should exit 2 as an unknown "
          "argument, got ${rc}: ${err}")
endif()
