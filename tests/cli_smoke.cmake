# End-to-end CLI smoke test driven by ctest. Fails on any non-zero
# exit or on a missing expected output.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run)
  execute_process(COMMAND ${GBIS_CLI} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "gbis ${ARGN} failed (${code}): ${out} ${err}")
  endif()
endfunction()

run(gen gbreg 400 8 3 ${WORK_DIR}/g.graph --seed 7)
run(solve ${WORK_DIR}/g.graph ckl ${WORK_DIR}/g.part)
run(eval ${WORK_DIR}/g.graph ${WORK_DIR}/g.part)
run(stats ${WORK_DIR}/g.graph)
run(kway ${WORK_DIR}/g.graph 4 ${WORK_DIR}/g4.part)
run(eval ${WORK_DIR}/g.graph ${WORK_DIR}/g4.part)
run(convert ${WORK_DIR}/g.graph ${WORK_DIR}/g.metis)
run(convert ${WORK_DIR}/g.metis ${WORK_DIR}/g.dot)
run(solve ${WORK_DIR}/g.metis quench)

foreach(artifact g.part g4.part g.metis g.dot)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "expected output missing: ${artifact}")
  endif()
endforeach()

# Campaign: run the trial matrix with a journal, then resume the same
# journal — the second run must adopt every trial instead of rerunning.
execute_process(COMMAND ${GBIS_CLI} campaign kl,ckl --starts 2
    --journal ${WORK_DIR}/c.jsonl ${WORK_DIR}/g.graph --seed 7
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE code OUTPUT_VARIABLE campaign_out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "campaign failed (${code}): ${campaign_out} ${err}")
endif()
if(NOT EXISTS ${WORK_DIR}/c.jsonl)
  message(FATAL_ERROR "campaign journal missing: c.jsonl")
endif()
execute_process(COMMAND ${GBIS_CLI} campaign kl,ckl --starts 2
    --resume ${WORK_DIR}/c.jsonl ${WORK_DIR}/g.graph --seed 7
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "campaign resume failed (${code}): ${out} ${err}")
endif()
if(NOT out MATCHES "4 resumed")
  message(FATAL_ERROR "campaign resume did not adopt the journal: ${out}")
endif()

# A crash mid-append tears the journal's last line: resume a copy whose
# last line is cut in half. The torn trial never finished, so it reruns
# (3 resumed), and the cut table matches the uninterrupted run's.
file(READ ${WORK_DIR}/c.jsonl journal)
string(LENGTH "${journal}" journal_len)
math(EXPR body_len "${journal_len} - 1")
string(SUBSTRING "${journal}" 0 ${body_len} body)
string(FIND "${body}" "\n" last_nl REVERSE)
math(EXPR torn_len "${last_nl} + 1 + (${body_len} - ${last_nl} - 1) / 2")
string(SUBSTRING "${journal}" 0 ${torn_len} torn)
file(WRITE ${WORK_DIR}/c_torn.jsonl "${torn}")
execute_process(COMMAND ${GBIS_CLI} campaign kl,ckl --starts 2
    --resume ${WORK_DIR}/c_torn.jsonl ${WORK_DIR}/g.graph --seed 7
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "torn-journal resume failed (${code}): ${out} ${err}")
endif()
if(NOT out MATCHES "3 resumed")
  message(FATAL_ERROR "torn-journal resume did not rerun the torn trial: ${out}")
endif()
string(REGEX REPLACE "trials:[^\n]*" "" torn_table "${out}")
string(REGEX REPLACE "trials:[^\n]*" "" campaign_table "${campaign_out}")
if(NOT torn_table STREQUAL campaign_table)
  message(FATAL_ERROR "torn-journal resume changed the cut table:\n"
    "${torn_table}\nexpected:\n${campaign_table}")
endif()

# Failure injection: bad inputs must exit with the documented codes,
# not crash. Missing file -> 3 (I/O), bad command line -> 2 (usage).
execute_process(COMMAND ${GBIS_CLI} solve /nonexistent.graph kl
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 3)
  message(FATAL_ERROR "missing-file solve exited ${code}, expected 3")
endif()
execute_process(COMMAND ${GBIS_CLI} bogus-command
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "bogus command exited ${code}, expected 2")
endif()
execute_process(COMMAND ${GBIS_CLI} solve ${WORK_DIR}/g.graph not-a-method
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "unknown method exited ${code}, expected 2")
endif()
execute_process(COMMAND ${GBIS_CLI} --help
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT code EQUAL 0 OR NOT out MATCHES "exit codes")
  message(FATAL_ERROR "--help exited ${code} or lacks the exit-code table")
endif()
if(NOT out MATCHES "serve")
  message(FATAL_ERROR "--help does not document the serve subcommand")
endif()

# Partition service: replay a request file and require the response
# stream to be byte-identical for 1 worker and 8 workers — the
# service's core determinism contract.
file(WRITE ${WORK_DIR}/reqs.ndjson
  "{\"id\":\"r1\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"auto\",\"budget\":4,\"want_sides\":true}\n"
  "{\"id\":\"r2\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"kl\"}\n"
  "{\"id\":\"r3\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"auto\",\"budget\":4}\n"
  "{\"id\":\"p\",\"op\":\"ping\"}\n"
  "{\"id\":\"bad\",\"op\":\"solve\",\"method\":\"kl\"}\n"
  "{\"id\":\"s\",\"op\":\"stats\"}\n")
set(ENV{GBIS_THREADS} 1)
execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/reqs.ndjson
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE code OUTPUT_VARIABLE serve1 ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve --replay (1 thread) failed (${code}): ${err}")
endif()
set(ENV{GBIS_THREADS} 8)
execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/reqs.ndjson
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE code OUTPUT_VARIABLE serve8 ERROR_VARIABLE err)
unset(ENV{GBIS_THREADS})
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve --replay (8 threads) failed (${code}): ${err}")
endif()
# Wall-clock latency fields (key suffix "_us", by the docs/SERVICE.md
# convention) are the one documented exception to byte identity —
# strip them, then require the rest to match exactly.
function(strip_timing text out_var)
  # JSON fields whose key carries the "_us" wall-clock marker. Values
  # are numbers (latencies) or strings (latency exemplar trace ids,
  # whose bucket placement is wall-clock too).
  string(REGEX REPLACE ",\"[a-zA-Z0-9_]*_us\":(\"[^\"]*\"|[-+0-9.eE]+)" ""
    text "${text}")
  # Prom series embedded in a "prom" response string: drop every
  # escaped line (…\n) naming a *_us metric. Escaped quotes are
  # removed first so backslash only ever means a line boundary; this
  # mangles the comparison copy, but mangles both sides identically.
  string(REPLACE "\\\"" "" text "${text}")
  string(REGEX REPLACE "[^\\\\]*_us[^\\\\]*\\\\n" "" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

strip_timing("${serve1}" serve1_cmp)
strip_timing("${serve8}" serve8_cmp)
if(NOT serve1_cmp STREQUAL serve8_cmp)
  message(FATAL_ERROR
    "serve replay is not byte-identical across thread counts:\n"
    "--- GBIS_THREADS=1 ---\n${serve1}\n--- GBIS_THREADS=8 ---\n${serve8}")
endif()
if(NOT serve1 MATCHES "\"id\":\"r1\",\"ok\":true")
  message(FATAL_ERROR "serve replay did not answer r1 ok: ${serve1}")
endif()
if(NOT serve1 MATCHES "\"id\":\"r3\",\"ok\":true.*\"cache\":\"coalesced\"")
  message(FATAL_ERROR "serve replay did not coalesce r3: ${serve1}")
endif()
if(NOT serve1 MATCHES "\"id\":\"bad\",\"ok\":false")
  message(FATAL_ERROR "serve replay did not reject the bad request: ${serve1}")
endif()

# The scheduler's rewired paths, byte-identical at 1 and 8 workers:
# queue-full rejections with and without a client trace id, then a
# level-3 brownout shed at EOF (--max-queue 3 --batch 6); and injected
# solve faults, each with a coalesced follower behind its leader.
set(kl "\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"kl\"")
file(WRITE ${WORK_DIR}/shed.ndjson
  "{\"id\":\"k1\",${kl},\"seed\":1}\n"
  "{\"id\":\"k2\",${kl},\"seed\":2}\n"
  "{\"id\":\"k3\",${kl},\"seed\":3}\n"
  "{\"id\":\"k4\",${kl},\"seed\":4}\n"
  "{\"id\":\"k5\",${kl},\"seed\":5,\"trace\":\"00000000000000cc\"}\n"
  "{\"id\":\"k6\",${kl},\"seed\":6}\n"
  "{\"id\":\"p\",\"op\":\"ping\"}\n"
  "{\"id\":\"s1\",\"op\":\"stats\"}\n"
  "{\"id\":\"q1\",${kl},\"seed\":9}\n"
  "{\"id\":\"q2\",${kl},\"seed\":9}\n"
  "{\"id\":\"s2\",\"op\":\"stats\"}\n"
  "{\"id\":\"t\",\"op\":\"trace\"}\n")
file(WRITE ${WORK_DIR}/faults.ndjson
  "{\"id\":\"f1\",${kl},\"seed\":1}\n"
  "{\"id\":\"f1b\",${kl},\"seed\":1}\n"
  "{\"id\":\"f2\",${kl},\"seed\":2}\n"
  "{\"id\":\"f3\",${kl},\"seed\":3}\n"
  "{\"id\":\"f3b\",${kl},\"seed\":3}\n")
set(shed_flags --max-queue 3 --batch 6)
set(faults_flags --batch 6)
foreach(stream shed faults)
  foreach(threads 1 8)
    set(ENV{GBIS_THREADS} ${threads})
    if(stream STREQUAL "faults")
      set(ENV{GBIS_SVC_FAULTS} "throw@solve:0,oom@solve:2")
    endif()
    execute_process(COMMAND ${GBIS_CLI} serve
        --replay ${WORK_DIR}/${stream}.ndjson ${${stream}_flags}
      WORKING_DIRECTORY ${WORK_DIR}
      RESULT_VARIABLE code OUTPUT_VARIABLE ${stream}${threads}
      ERROR_VARIABLE err)
    unset(ENV{GBIS_THREADS})
    unset(ENV{GBIS_SVC_FAULTS})
    if(NOT code EQUAL 0)
      message(FATAL_ERROR
        "${stream} replay (${threads} threads) failed (${code}): ${err}")
    endif()
  endforeach()
  strip_timing("${${stream}1}" stream1_cmp)
  strip_timing("${${stream}8}" stream8_cmp)
  if(NOT stream1_cmp STREQUAL stream8_cmp)
    message(FATAL_ERROR
      "${stream} replay is not byte-identical across thread counts:\n"
      "--- GBIS_THREADS=1 ---\n${${stream}1}\n"
      "--- GBIS_THREADS=8 ---\n${${stream}8}")
  endif()
endforeach()
set(queue_full "\"error\":\"rejected: queue full")
foreach(expected
    "\"id\":\"k4\",\"ok\":false,${queue_full}"
    "\"id\":\"k5\",\"ok\":false,\"trace\":\"00000000000000cc\",${queue_full}"
    "\"id\":\"k1\",[^\n]*\"error\":\"rejected: brownout \\(level 3\\)")
  if(NOT shed1 MATCHES "${expected}")
    message(FATAL_ERROR "shed replay lacks ${expected}: ${shed1}")
  endif()
endforeach()
foreach(reason "solve failed" "out of memory")
  if(NOT faults1 MATCHES
      "\"cache\":\"coalesced\",\"error\":\"internal: ${reason}\"")
    message(FATAL_ERROR
      "fault replay lacks a coalesced \"${reason}\" follower: ${faults1}")
  endif()
endforeach()

# Serve telemetry: stats v2, the prom exposition, the access log, and
# the --stats-file snapshot must all come back — and every
# deterministic byte of them must be identical at 1 and 8 workers.
file(WRITE ${WORK_DIR}/telem.ndjson
  "{\"id\":\"t1\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"kl\"}\n"
  "{\"id\":\"t2\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"kl\"}\n"
  "{\"id\":\"ts\",\"op\":\"stats\"}\n"
  "{\"id\":\"tp\",\"op\":\"stats\",\"format\":\"prom\"}\n")
# The access log appends; clear leftovers from a previous ctest run.
file(REMOVE ${WORK_DIR}/access1.jsonl ${WORK_DIR}/access8.jsonl)
foreach(threads 1 8)
  set(ENV{GBIS_THREADS} ${threads})
  execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/telem.ndjson
      --access-log ${WORK_DIR}/access${threads}.jsonl
      --stats-file ${WORK_DIR}/prom${threads}.txt
      --slow-ms 0
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE telem${threads} ERROR_VARIABLE err)
  unset(ENV{GBIS_THREADS})
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "serve telemetry replay (${threads} threads) failed (${code}): ${err}")
  endif()
endforeach()
if(NOT telem1 MATCHES "\"stats_version\":5")
  message(FATAL_ERROR "stats response is not v5: ${telem1}")
endif()
if(NOT telem1 MATCHES "\"trace_spans\":")
  message(FATAL_ERROR "stats response lacks v5 tracing counters: ${telem1}")
endif()
if(NOT telem1 MATCHES "\"quality_fast\":")
  message(FATAL_ERROR "stats response lacks v4 quality counters: ${telem1}")
endif()
if(NOT telem1 MATCHES "\"solve_by_ckl\":")
  message(FATAL_ERROR "stats response lacks v4 per-method counters: ${telem1}")
endif()
if(NOT telem1 MATCHES "\"queue_depth\":")
  message(FATAL_ERROR "stats response lacks gauges: ${telem1}")
endif()
if(NOT telem1 MATCHES "\"prom\":\"")
  message(FATAL_ERROR "prom-format stats response missing: ${telem1}")
endif()
strip_timing("${telem1}" telem1_cmp)
strip_timing("${telem8}" telem8_cmp)
if(NOT telem1_cmp STREQUAL telem8_cmp)
  message(FATAL_ERROR
    "serve telemetry responses differ across thread counts:\n"
    "--- GBIS_THREADS=1 ---\n${telem1}\n--- GBIS_THREADS=8 ---\n${telem8}")
endif()

file(READ ${WORK_DIR}/access1.jsonl access1)
file(READ ${WORK_DIR}/access8.jsonl access8)
if(NOT access1 MATCHES "\"seq\":0,\"id\":\"t1\",\"op\":\"solve\",\"status\":\"ok\"")
  message(FATAL_ERROR "access log lacks the expected first entry: ${access1}")
endif()
strip_timing("${access1}" access1_cmp)
strip_timing("${access8}" access8_cmp)
if(NOT access1_cmp STREQUAL access8_cmp)
  message(FATAL_ERROR
    "access logs differ across thread counts:\n"
    "--- GBIS_THREADS=1 ---\n${access1}\n--- GBIS_THREADS=8 ---\n${access8}")
endif()

# The prom snapshot: drop whole series whose metric name carries the
# "_us" marker (their bucket placement is wall-clock), compare the rest.
file(READ ${WORK_DIR}/prom1.txt prom1)
file(READ ${WORK_DIR}/prom8.txt prom8)
if(NOT prom1 MATCHES "# TYPE gbis_svc_requests_total counter")
  message(FATAL_ERROR "prom snapshot lacks the counter catalog: ${prom1}")
endif()
function(strip_us_series text out_var)
  string(REGEX REPLACE "[^\n]*_us[^\n]*\n" "" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()
strip_us_series("${prom1}" prom1_cmp)
strip_us_series("${prom8}" prom8_cmp)
if(NOT prom1_cmp STREQUAL prom8_cmp)
  message(FATAL_ERROR
    "prom snapshots differ across thread counts:\n"
    "--- GBIS_THREADS=1 ---\n${prom1}\n--- GBIS_THREADS=8 ---\n${prom8}")
endif()

# Lint the exposition with the checked-in validator when python3 is
# around (CI always has it; dev boxes may not).
find_program(PYTHON3 python3)
if(PYTHON3 AND DEFINED PROM_LINT)
  execute_process(COMMAND ${PYTHON3} ${PROM_LINT} --strict
      ${WORK_DIR}/prom1.txt ${WORK_DIR}/prom8.txt
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "prom_lint rejected the snapshot: ${out} ${err}")
  endif()
endif()

# Usage contract for the new flags: a negative --slow-ms is 2 (usage).
execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/telem.ndjson
    --slow-ms -1
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "negative --slow-ms exited ${code}, expected 2")
endif()

# Serve trace.json: a --trace-dir run always writes the flight ring's
# completed span sets through the shared Chrome writer — one "request"
# event per request, each followed by its spans — and no spans.json.
# --slow-ms only filters the sets by their accept -> write time.
file(REMOVE_RECURSE ${WORK_DIR}/svc_trace)
run(--trace-dir ${WORK_DIR}/svc_trace serve --replay ${WORK_DIR}/telem.ndjson)
file(READ ${WORK_DIR}/svc_trace/trace.json svc_trace)
string(JSON svc_events LENGTH "${svc_trace}" traceEvents)  # must parse
string(REGEX MATCHALL "\"cat\":\"request\"" svc_requests "${svc_trace}")
list(LENGTH svc_requests svc_requests)
if(NOT svc_requests EQUAL 4)
  message(FATAL_ERROR
    "serve trace.json has ${svc_requests} request events, expected 4:\n"
    "${svc_trace}")
endif()
if(NOT svc_trace MATCHES "\"name\":\"solve\",\"cat\":\"span\"")
  message(FATAL_ERROR "serve trace.json lacks solve spans: ${svc_trace}")
endif()
if(EXISTS ${WORK_DIR}/svc_trace/spans.json)
  message(FATAL_ERROR "serve --trace-dir still writes spans.json")
endif()
run(--trace-dir ${WORK_DIR}/svc_trace serve --replay ${WORK_DIR}/telem.ndjson
    --slow-ms 1000000)
file(READ ${WORK_DIR}/svc_trace/trace.json svc_trace)
string(JSON svc_events LENGTH "${svc_trace}" traceEvents)
if(NOT svc_events EQUAL 0)
  message(FATAL_ERROR
    "--slow-ms 1000000 kept ${svc_events} trace events: ${svc_trace}")
endif()

# Crash-safety chaos: the service fault plan SIGKILLs the server at
# the third dispatched batch (crash@batch:2), after two batches of
# responses — and their cache-journal entries — are already flushed. A
# warm restart on the same journal must answer the pre-crash solves as
# cached hits whose bytes are identical to the pre-crash hit responses,
# at 1 worker and at 8.
file(WRITE ${WORK_DIR}/chaos.ndjson
  "{\"id\":\"ca\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"auto\",\"budget\":2,\"seed\":201,\"want_sides\":true}\n"
  "{\"id\":\"cb\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"kl\",\"seed\":202}\n"
  "{\"id\":\"ca\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"auto\",\"budget\":2,\"seed\":201,\"want_sides\":true}\n"
  "{\"id\":\"cb\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"kl\",\"seed\":202}\n"
  "{\"id\":\"cc\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"auto\",\"budget\":2,\"seed\":203}\n"
  "{\"id\":\"cd\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"kl\",\"seed\":204}\n")
foreach(threads 1 8)
  file(REMOVE ${WORK_DIR}/chaos${threads}.jsonl ${WORK_DIR}/flight${threads}.jsonl)
  set(ENV{GBIS_THREADS} ${threads})
  set(ENV{GBIS_SVC_FAULTS} "crash@batch:2")
  execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/chaos.ndjson
      --batch 2 --cache-file ${WORK_DIR}/chaos${threads}.jsonl
      --flight-file ${WORK_DIR}/flight${threads}.jsonl
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE crash_out ERROR_QUIET)
  unset(ENV{GBIS_SVC_FAULTS})
  if(code EQUAL 0)
    message(FATAL_ERROR
      "chaos serve (${threads} threads) survived the injected crash")
  endif()
  # The flight recorder's black box must survive the SIGKILL: the crash
  # path dumps completed span sets (and any in-flight work) before the
  # process dies, each line tagged with its deterministic trace id.
  if(NOT EXISTS ${WORK_DIR}/flight${threads}.jsonl)
    message(FATAL_ERROR
      "chaos serve (${threads} threads) left no flight dump behind")
  endif()
  file(READ ${WORK_DIR}/flight${threads}.jsonl flight_dump)
  if(NOT flight_dump MATCHES "\"state\":\"done\"")
    message(FATAL_ERROR
      "flight dump (${threads} threads) has no completed span sets:\n"
      "${flight_dump}")
  endif()
  if(NOT flight_dump MATCHES "\"trace\":\"[0-9a-f][0-9a-f][0-9a-f][0-9a-f]")
    message(FATAL_ERROR
      "flight dump (${threads} threads) lines carry no trace ids:\n"
      "${flight_dump}")
  endif()
  string(REGEX MATCHALL "[^\n]+" crash_lines "${crash_out}")
  list(LENGTH crash_lines crash_count)
  if(NOT crash_count EQUAL 4)
    message(FATAL_ERROR
      "chaos serve (${threads} threads) flushed ${crash_count} responses "
      "before the crash, expected 4:\n${crash_out}")
  endif()
  list(GET crash_lines 2 precrash_hit_a)
  list(GET crash_lines 3 precrash_hit_b)
  if(NOT precrash_hit_a MATCHES "\"cache\":\"hit\"")
    message(FATAL_ERROR "pre-crash repeat was not a hit: ${precrash_hit_a}")
  endif()
  execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/chaos.ndjson
      --batch 2 --cache-file ${WORK_DIR}/chaos${threads}.jsonl
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE warm_out ERROR_VARIABLE err)
  unset(ENV{GBIS_THREADS})
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "warm restart (${threads} threads) failed (${code}): ${err}")
  endif()
  string(REGEX MATCHALL "[^\n]+" warm_lines "${warm_out}")
  list(LENGTH warm_lines warm_count)
  if(NOT warm_count EQUAL 6)
    message(FATAL_ERROR
      "warm restart (${threads} threads) answered ${warm_count} of 6:\n"
      "${warm_out}")
  endif()
  # The journal replay makes the first occurrences warm hits, and their
  # bytes must match the pre-crash hit responses exactly.
  list(GET warm_lines 0 warm_hit_a)
  list(GET warm_lines 1 warm_hit_b)
  if(NOT warm_hit_a STREQUAL precrash_hit_a OR
     NOT warm_hit_b STREQUAL precrash_hit_b)
    message(FATAL_ERROR
      "warm hits differ from the pre-crash responses "
      "(${threads} threads):\n--- pre-crash ---\n${precrash_hit_a}\n"
      "${precrash_hit_b}\n--- warm ---\n${warm_hit_a}\n${warm_hit_b}")
  endif()
  list(GET warm_lines 4 warm_cold)
  if(NOT warm_cold MATCHES "\"cache\":\"miss\"")
    message(FATAL_ERROR
      "post-restart request cc was not a cold solve: ${warm_cold}")
  endif()
  set(warm${threads} "${warm_out}")
endforeach()
if(NOT warm1 STREQUAL warm8)
  message(FATAL_ERROR
    "warm-restart streams differ across thread counts:\n"
    "--- GBIS_THREADS=1 ---\n${warm1}\n--- GBIS_THREADS=8 ---\n${warm8}")
endif()

# Serve failure contract: missing replay file -> 3 (I/O), unknown
# flag -> 2 (usage), --replay combined with a listener -> 2 (the two
# input modes are exclusive).
execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/nonexistent.ndjson
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 3)
  message(FATAL_ERROR "serve with missing replay file exited ${code}, expected 3")
endif()
execute_process(COMMAND ${GBIS_CLI} serve --bogus-flag
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "serve with unknown flag exited ${code}, expected 2")
endif()
execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/telem.ndjson
    --listen 127.0.0.1:0
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "serve --replay + --listen exited ${code}, expected 2")
endif()
execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/telem.ndjson
    --brownout-window 0
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "zero --brownout-window exited ${code}, expected 2")
endif()
execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/telem.ndjson
    --cache-file ${WORK_DIR}/no_such_dir/j.jsonl
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 3)
  message(FATAL_ERROR "unopenable --cache-file exited ${code}, expected 3")
endif()

# Malformed numbers are usage errors, never silently reinterpreted:
# trailing text, a sign on an unsigned value, a value past its type, a
# non-finite double, or a mebibyte count whose bytes overflow 64 bits.
foreach(bad
    "serve;--cache-mb;abc" "serve;--graph-mb;1x" "serve;--deadline;1ms"
    "serve;--budget;4294967297" "serve;--cache-mb;17592186044416"
    "serve;--access-log-max-mb;-1" "serve;--deadline;inf"
    "serve;--flight-ring;4294967296" "--seed;12abc;serve"
    "--threads;-2;serve")
  execute_process(COMMAND ${GBIS_CLI} ${bad} --replay ${WORK_DIR}/telem.ndjson
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "gbis ${bad} exited ${code}, expected 2")
  endif()
endforeach()
set(ENV{GBIS_THREADS} "4x")
execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/telem.ndjson
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
unset(ENV{GBIS_THREADS})
if(NOT code EQUAL 2)
  message(FATAL_ERROR "GBIS_THREADS=4x serve exited ${code}, expected 2")
endif()
# The service's own env knobs warn and keep their default instead.
set(ENV{GBIS_SVC_CACHE_MB} "-1")
execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/telem.ndjson
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
unset(ENV{GBIS_SVC_CACHE_MB})
if(NOT code EQUAL 0 OR NOT err MATCHES "ignoring malformed GBIS_SVC_CACHE_MB")
  message(FATAL_ERROR "GBIS_SVC_CACHE_MB=-1 exited ${code}: ${err}")
endif()

# Socket mode: stream the same requests over loopback TCP and a unix
# socket (tools/svc_client.py spawns the server, polls --ready-file,
# half-closes after sending, SIGTERMs, and demands exit 130). After the
# "_us" strip, every transport x thread-count combination must be
# byte-identical to the stdio replay — the socket layer adds framing,
# not behavior. Unique seeds per request keep cache labels independent
# of batch boundaries and TCP segmentation.
if(PYTHON3 AND DEFINED SVC_CLIENT)
  file(WRITE ${WORK_DIR}/sock_reqs.ndjson
    "{\"id\":\"k1\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"kl\",\"seed\":101}\n"
    "{\"id\":\"k2\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"auto\",\"budget\":4,\"seed\":102,\"want_sides\":true}\n"
    "{\"id\":\"p\",\"op\":\"ping\"}\n"
    "{\"id\":\"k3\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"sa\",\"seed\":103}\n")
  set(ENV{GBIS_THREADS} 1)
  execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/sock_reqs.ndjson
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE sock_expected ERROR_VARIABLE err)
  unset(ENV{GBIS_THREADS})
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "socket-smoke replay baseline failed (${code}): ${err}")
  endif()
  strip_timing("${sock_expected}" sock_expected_cmp)
  foreach(transport tcp unix)
    foreach(threads 1 8)
      set(ENV{GBIS_THREADS} ${threads})
      execute_process(COMMAND ${PYTHON3} ${SVC_CLIENT} ${GBIS_CLI}
          ${WORK_DIR}/sock_reqs.ndjson --transport ${transport}
        WORKING_DIRECTORY ${WORK_DIR}
        RESULT_VARIABLE code OUTPUT_VARIABLE sock_out ERROR_VARIABLE err)
      unset(ENV{GBIS_THREADS})
      if(NOT code EQUAL 0)
        message(FATAL_ERROR
          "socket smoke (${transport}, ${threads} threads) failed "
          "(${code}): ${err}")
      endif()
      strip_timing("${sock_out}" sock_out_cmp)
      if(NOT sock_out_cmp STREQUAL sock_expected_cmp)
        message(FATAL_ERROR
          "socket responses (${transport}, ${threads} threads) differ "
          "from the stdio replay:\n--- socket ---\n${sock_out}\n"
          "--- replay ---\n${sock_expected}")
      endif()
    endforeach()
  endforeach()

  # Quality ladder: for each rung, the client's --quality decoration
  # over a socket must answer byte-identically to a stdio replay of
  # the same decorated requests, at 1 and 8 threads. The baseline file
  # spells the requests exactly as annotate_quality splices them
  # (quality key first), so the comparison covers the decoration bytes
  # too, not just the ladder's determinism.
  file(WRITE ${WORK_DIR}/qual_base.ndjson
    "{\"id\":\"q1\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"budget\":4,\"seed\":201,\"want_sides\":true}\n"
    "{\"id\":\"q2\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"budget\":4,\"seed\":202}\n")
  foreach(tier fast balanced best)
    file(WRITE ${WORK_DIR}/qual_${tier}.ndjson
      "{\"quality\":\"${tier}\",\"id\":\"q1\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"budget\":4,\"seed\":201,\"want_sides\":true}\n"
      "{\"quality\":\"${tier}\",\"id\":\"q2\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"budget\":4,\"seed\":202}\n")
    set(ENV{GBIS_THREADS} 1)
    execute_process(COMMAND ${GBIS_CLI} serve --replay ${WORK_DIR}/qual_${tier}.ndjson
      WORKING_DIRECTORY ${WORK_DIR}
      RESULT_VARIABLE code OUTPUT_VARIABLE qual_expected ERROR_VARIABLE err)
    unset(ENV{GBIS_THREADS})
    if(NOT code EQUAL 0)
      message(FATAL_ERROR
        "quality-${tier} replay baseline failed (${code}): ${err}")
    endif()
    strip_timing("${qual_expected}" qual_expected_cmp)
    foreach(threads 1 8)
      set(ENV{GBIS_THREADS} ${threads})
      execute_process(COMMAND ${PYTHON3} ${SVC_CLIENT} ${GBIS_CLI}
          ${WORK_DIR}/qual_base.ndjson --transport tcp --quality ${tier}
        WORKING_DIRECTORY ${WORK_DIR}
        RESULT_VARIABLE code OUTPUT_VARIABLE qual_out ERROR_VARIABLE err)
      unset(ENV{GBIS_THREADS})
      if(NOT code EQUAL 0)
        message(FATAL_ERROR
          "quality-${tier} socket smoke (${threads} threads) failed "
          "(${code}): ${err}")
      endif()
      strip_timing("${qual_out}" qual_out_cmp)
      if(NOT qual_out_cmp STREQUAL qual_expected_cmp)
        message(FATAL_ERROR
          "quality-${tier} socket responses (${threads} threads) differ "
          "from the stdio replay:\n--- socket ---\n${qual_out}\n"
          "--- replay ---\n${qual_expected}")
      endif()
    endforeach()
  endforeach()

  # Escalating shutdown: a second SIGTERM 50 ms after the first must
  # shorten the drain, never kill the process — the exit code stays
  # 130 (svc_client.py enforces it).
  execute_process(COMMAND ${PYTHON3} ${SVC_CLIENT} ${GBIS_CLI}
      ${WORK_DIR}/sock_reqs.ndjson --transport tcp --sigterm-count 2
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "double-SIGTERM escalation smoke failed (${code}): ${err}")
  endif()

  # Retry mode: line-at-a-time delivery with brownout backoff enabled
  # answers the same bytes as the stdio replay when nothing sheds.
  execute_process(COMMAND ${PYTHON3} ${SVC_CLIENT} ${GBIS_CLI}
      ${WORK_DIR}/sock_reqs.ndjson --transport tcp --retry 2
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE retry_out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "retry-mode socket smoke failed (${code}): ${err}")
  endif()
  strip_timing("${retry_out}" retry_out_cmp)
  if(NOT retry_out_cmp STREQUAL sock_expected_cmp)
    message(FATAL_ERROR
      "retry-mode responses differ from the stdio replay:\n"
      "--- retry ---\n${retry_out}\n--- replay ---\n${sock_expected}")
  endif()

  # Mutation chain: script a mutate -> warm-solve -> mutate chain over
  # the socket with --chain (@fp:ID tokens resolve to the child
  # fingerprints the server just minted), --record the resolved request
  # lines, then replay those lines over stdio. Chain mode is
  # line-at-a-time, so the stdio replay uses --batch 1 to reproduce the
  # same batch boundaries; after the "_us" strip every transport x
  # thread-count combination must match the stdio bytes. The chain
  # grows fresh vertices (400, 401) so the new edges cannot collide
  # with the generated graph.
  file(WRITE ${WORK_DIR}/chain_reqs.ndjson
    "{\"id\":\"c0\",\"op\":\"solve\",\"path\":\"${WORK_DIR}/g.graph\",\"method\":\"kl\",\"seed\":301}\n"
    "{\"id\":\"m1\",\"op\":\"mutate\",\"path\":\"${WORK_DIR}/g.graph\",\"add_vertices\":1,\"add_edges\":[400,0]}\n"
    "{\"id\":\"w1\",\"op\":\"solve\",\"graph\":\"@fp:m1\",\"method\":\"kl\",\"seed\":301}\n"
    "{\"id\":\"m2\",\"op\":\"mutate\",\"parent\":\"@fp:m1\",\"add_vertices\":1,\"add_edges\":[401,1]}\n"
    "{\"id\":\"w2\",\"op\":\"solve\",\"graph\":\"@fp:m2\",\"method\":\"kl\",\"seed\":302}\n")
  set(ENV{GBIS_THREADS} 1)
  execute_process(COMMAND ${PYTHON3} ${SVC_CLIENT} ${GBIS_CLI}
      ${WORK_DIR}/chain_reqs.ndjson --transport tcp --chain
      --record ${WORK_DIR}/chain_resolved.ndjson
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE chain_first ERROR_VARIABLE err)
  unset(ENV{GBIS_THREADS})
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mutation-chain socket smoke failed (${code}): ${err}")
  endif()
  if(NOT EXISTS ${WORK_DIR}/chain_resolved.ndjson)
    message(FATAL_ERROR "--record did not write the resolved request file")
  endif()
  file(READ ${WORK_DIR}/chain_resolved.ndjson chain_resolved)
  if(chain_resolved MATCHES "@fp:")
    message(FATAL_ERROR
      "recorded chain still holds unresolved tokens:\n${chain_resolved}")
  endif()
  if(NOT chain_first MATCHES "\"id\":\"m1\",\"ok\":true,\"op\":\"mutate\"")
    message(FATAL_ERROR "chain mutate m1 did not succeed:\n${chain_first}")
  endif()
  if(NOT chain_first MATCHES "\"id\":\"w1\",\"ok\":true.*\"warm\":true")
    message(FATAL_ERROR
      "solve after mutation did not warm-start:\n${chain_first}")
  endif()
  set(ENV{GBIS_THREADS} 1)
  execute_process(COMMAND ${GBIS_CLI} serve
      --replay ${WORK_DIR}/chain_resolved.ndjson --batch 1
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE chain_expected ERROR_VARIABLE err)
  unset(ENV{GBIS_THREADS})
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "chain replay baseline failed (${code}): ${err}")
  endif()
  strip_timing("${chain_expected}" chain_expected_cmp)
  strip_timing("${chain_first}" chain_first_cmp)
  if(NOT chain_first_cmp STREQUAL chain_expected_cmp)
    message(FATAL_ERROR
      "chain socket responses differ from the stdio replay:\n"
      "--- socket ---\n${chain_first}\n--- replay ---\n${chain_expected}")
  endif()
  foreach(transport tcp unix)
    foreach(threads 1 8)
      set(ENV{GBIS_THREADS} ${threads})
      execute_process(COMMAND ${PYTHON3} ${SVC_CLIENT} ${GBIS_CLI}
          ${WORK_DIR}/chain_reqs.ndjson --transport ${transport} --chain
        WORKING_DIRECTORY ${WORK_DIR}
        RESULT_VARIABLE code OUTPUT_VARIABLE chain_out ERROR_VARIABLE err)
      unset(ENV{GBIS_THREADS})
      if(NOT code EQUAL 0)
        message(FATAL_ERROR
          "mutation chain (${transport}, ${threads} threads) failed "
          "(${code}): ${err}")
      endif()
      strip_timing("${chain_out}" chain_out_cmp)
      if(NOT chain_out_cmp STREQUAL chain_expected_cmp)
        message(FATAL_ERROR
          "mutation chain (${transport}, ${threads} threads) differs "
          "from the stdio replay:\n--- socket ---\n${chain_out}\n"
          "--- replay ---\n${chain_expected}")
      endif()
    endforeach()
  endforeach()

  # Chaos mid-mutation-chain: SIGKILL the server at the third batch of
  # the resolved chain (--batch 2 puts w2 alone there), then warm
  # restart on the same journal. The replayed mutates must answer
  # byte-identically to the pre-crash responses — the journal's lineage
  # records reproduce the exact child fingerprints — and the whole
  # warm stream must be thread-count invariant.
  foreach(threads 1 8)
    file(REMOVE ${WORK_DIR}/chainj${threads}.jsonl)
    set(ENV{GBIS_THREADS} ${threads})
    set(ENV{GBIS_SVC_FAULTS} "crash@batch:2")
    execute_process(COMMAND ${GBIS_CLI} serve
        --replay ${WORK_DIR}/chain_resolved.ndjson
        --batch 2 --cache-file ${WORK_DIR}/chainj${threads}.jsonl
      WORKING_DIRECTORY ${WORK_DIR}
      RESULT_VARIABLE code OUTPUT_VARIABLE chain_crash ERROR_QUIET)
    unset(ENV{GBIS_SVC_FAULTS})
    if(code EQUAL 0)
      message(FATAL_ERROR
        "chain chaos (${threads} threads) survived the injected crash")
    endif()
    string(REGEX MATCHALL "[^\n]+" crash_lines "${chain_crash}")
    list(LENGTH crash_lines crash_count)
    if(NOT crash_count EQUAL 4)
      message(FATAL_ERROR
        "chain chaos (${threads} threads) flushed ${crash_count} responses "
        "before the crash, expected 4:\n${chain_crash}")
    endif()
    execute_process(COMMAND ${GBIS_CLI} serve
        --replay ${WORK_DIR}/chain_resolved.ndjson
        --batch 2 --cache-file ${WORK_DIR}/chainj${threads}.jsonl
      WORKING_DIRECTORY ${WORK_DIR}
      RESULT_VARIABLE code OUTPUT_VARIABLE chain_warm ERROR_VARIABLE err)
    unset(ENV{GBIS_THREADS})
    if(NOT code EQUAL 0)
      message(FATAL_ERROR
        "chain warm restart (${threads} threads) failed (${code}): ${err}")
    endif()
    string(REGEX MATCHALL "[^\n]+" warm_lines "${chain_warm}")
    list(LENGTH warm_lines warm_count)
    if(NOT warm_count EQUAL 5)
      message(FATAL_ERROR
        "chain warm restart (${threads} threads) answered ${warm_count} "
        "of 5:\n${chain_warm}")
    endif()
    # Mutate responses carry no cache label and no timing: the lineage
    # replay must reproduce them byte-for-byte.
    list(GET crash_lines 1 precrash_m1)
    list(GET crash_lines 3 precrash_m2)
    list(GET warm_lines 1 replay_m1)
    list(GET warm_lines 3 replay_m2)
    if(NOT replay_m1 STREQUAL precrash_m1 OR
       NOT replay_m2 STREQUAL precrash_m2)
      message(FATAL_ERROR
        "replayed mutates differ from the pre-crash responses "
        "(${threads} threads):\n--- pre-crash ---\n${precrash_m1}\n"
        "${precrash_m2}\n--- warm ---\n${replay_m1}\n${replay_m2}")
    endif()
    list(GET warm_lines 2 replay_w1)
    if(NOT replay_w1 MATCHES "\"cache\":\"hit\"")
      message(FATAL_ERROR
        "post-restart w1 was not a journaled hit: ${replay_w1}")
    endif()
    list(GET warm_lines 4 replay_w2)
    if(NOT replay_w2 MATCHES "\"ok\":true")
      message(FATAL_ERROR
        "post-restart w2 did not solve: ${replay_w2}")
    endif()
    set(chain_warm${threads} "${chain_warm}")
  endforeach()
  strip_timing("${chain_warm1}" chain_warm1_cmp)
  strip_timing("${chain_warm8}" chain_warm8_cmp)
  if(NOT chain_warm1_cmp STREQUAL chain_warm8_cmp)
    message(FATAL_ERROR
      "chain warm-restart streams differ across thread counts:\n"
      "--- GBIS_THREADS=1 ---\n${chain_warm1}\n"
      "--- GBIS_THREADS=8 ---\n${chain_warm8}")
  endif()
endif()
