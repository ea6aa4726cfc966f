let () =
  Alcotest.run "cheri_c"
    [
      ("bits", Test_bits.suite);
      ("capability", Test_capability.suite);
      ("cap_ops", Test_cap_ops.suite);
      ("tagmem", Test_tagmem.suite);
      ("tagmem_ref", Test_tagmem_model.suite);
      ("cache_ref", Test_cache_model.suite);
      ("machine", Test_machine.suite);
      ("decoded", Test_decoded.suite);
      ("asm", Test_asm.suite);
      ("minic", Test_minic.suite);
      ("interp", Test_interp.suite);
      ("compiler", Test_compiler.suite);
      ("analysis", Test_analysis.suite);
      ("workloads", Test_workloads.suite);
      ("telemetry", Test_telemetry.suite);
      ("printers", Test_printers.suite);
      ("gc", Test_gc.suite);
      ("exec", Test_exec.suite);
      ("snapshot", Test_snapshot.suite);
      ("resumable", Test_resumable.suite);
      ("fuzz", Test_fuzz.suite);
      ("inject", Test_inject.suite);
      ("properties", Test_props.suite);
      ("perf_equiv", Test_perf_equiv.suite);
      ("obs", Test_obs.suite);
      ("service", Test_service.suite);
      ("supervisor", Test_supervisor.suite);
    ]
