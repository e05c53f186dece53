let () =
  Alcotest.run "ddf"
    (Test_schema.suite @ Test_graph.suite @ Test_representations.suite
    @ Test_eda_netlist.suite @ Test_eda_sim.suite @ Test_eda_physical.suite
    @ Test_store_history.suite @ Test_exec.suite @ Test_session.suite
    @ Test_baselines.suite @ Test_persist.suite @ Test_integration.suite
    @ Test_hier_process.suite @ Test_properties.suite @ Test_misc.suite
    @ Test_obs.suite @ Test_journal.suite @ Test_server.suite
    @ Test_replica.suite @ Test_cement.suite @ Test_fault.suite
    @ Test_telemetry.suite @ Test_sync.suite @ Test_wire.suite
    @ Test_mvcc.suite @ Test_trace_walk.suite @ Test_version_index.suite)
