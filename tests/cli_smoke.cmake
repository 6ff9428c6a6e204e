# End-to-end smoke test for the vdg CLI, run under ctest:
#   init -> import -> list -> plan -> run -> lineage (local and --fed)
#   -> audit -> invalidate -> run (repair)
# Invoked as:
#   cmake -DVDG_CLI=<path-to-vdg> -DWORK_DIR=<scratch> -P cli_smoke.cmake

if(NOT DEFINED VDG_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "VDG_CLI and WORK_DIR must be defined")
endif()

set(CATALOG "${WORK_DIR}/smoke.vdc")
set(VDL "${WORK_DIR}/smoke.vdl")
file(REMOVE "${CATALOG}")
file(WRITE "${VDL}" "
TR simulate( output events, input config, none nevents=\"1000\" ) {
  argument n = \"-n \"\${none:nevents};
  argument stdin = \${input:config};
  argument stdout = \${output:events};
  exec = \"/opt/bin/simulate\";
}
TR analyze( output summary, input events ) {
  argument stdin = \${input:events};
  argument stdout = \${output:summary};
  exec = \"/opt/bin/analyze\";
}
DS run1.config : Dataset size=\"65536\";
DV sim1->simulate( events=@{output:\"run1.events\"},
                   config=@{input:\"run1.config\"} );
DV ana1->analyze( summary=@{output:\"run1.summary\"},
                  events=@{input:\"run1.events\"} );
")

function(vdg_step expect_substring)
  execute_process(
    COMMAND ${VDG_CLI} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "vdg ${ARGN} failed (${code}): ${out}${err}")
  endif()
  if(NOT expect_substring STREQUAL "" AND
     NOT out MATCHES "${expect_substring}")
    message(FATAL_ERROR
            "vdg ${ARGN}: expected output matching '${expect_substring}', "
            "got: ${out}")
  endif()
endfunction()

vdg_step("initialized catalog" init "${CATALOG}")
vdg_step("\\+2 derivations" import "${CATALOG}" "${VDL}")
vdg_step("run1.summary" list "${CATALOG}" datasets)
vdg_step("materialize run1.summary" plan "${CATALOG}" run1.summary)
vdg_step("<adag" plan "${CATALOG}" run1.summary --dax)
vdg_step("succeeded: 2/2" run "${CATALOG}" run1.summary)
vdg_step("raw input" lineage "${CATALOG}" run1.summary)
# The registry walk names every node by its vdp:// hyperlink.
vdg_step("vdp://" lineage "${CATALOG}" run1.summary --fed)
vdg_step("sim1" audit "${CATALOG}" run1.summary)
vdg_step("materialized: yes" show "${CATALOG}" run1.summary)
vdg_step("need re-running" invalidate "${CATALOG}" run1.config)
# Repair: re-run after invalidation, against the replayed journal.
vdg_step("succeeded" run "${CATALOG}" run1.summary)
vdg_step("<transformation" xml "${CATALOG}" simulate)
vdg_step("TR simulate" dump "${CATALOG}")
vdg_step("<vdl" dump "${CATALOG}" --xml)
vdg_step("journal compacted" compact "${CATALOG}")
# State survives compaction.
vdg_step("materialized: yes" show "${CATALOG}" run1.summary)
file(REMOVE "${CATALOG}" "${VDL}")
message(STATUS "cli smoke test passed")
