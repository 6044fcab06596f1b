let () =
  Alcotest.run "specrepro"
    [
      ("util", Test_util.suite);
      ("isa", Test_isa.suite);
      ("vm", Test_vm.suite);
      ("cache", Test_cache.suite);
      ("pin", Test_pin.suite);
      ("simpoint", Test_simpoint.suite);
      ("pinball", Test_pinball.suite);
      ("workloads", Test_workloads.suite);
      ("cpu", Test_cpu.suite);
      ("perf", Test_perf.suite);
      ("core", Test_core.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
      ("blockstep", Test_blockstep.suite);
      ("compiled", Test_compiled.suite);
      ("fusedcache", Test_fusedcache.suite);
      ("timing", Test_timing.suite);
      ("models", Test_models.suite);
      ("misc", Test_misc.suite);
      ("coverage", Test_coverage.suite);
      ("parallel", Test_parallel.suite);
      ("warmreplay", Test_warmreplay.suite);
      ("registry", Test_experiments.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("cowmem", Test_cowmem.suite);
    ]
