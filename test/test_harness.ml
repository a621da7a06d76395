(* Harness tests: experiment runner and figure dispatch. *)

let tiny_driver =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = 30.;
    duration = Simcore.Sim_time.seconds 6.;
    warmup = Simcore.Sim_time.seconds 1.;
    cooldown = Simcore.Sim_time.seconds 1.;
    drain = Simcore.Sim_time.seconds 20.;
  }

let tiny_setup = { Harness.Experiment.default_setup with Harness.Experiment.driver = tiny_driver }

let result_of ?check ?metrics spec ~gen ~seed =
  (Harness.Experiment.run_outcome ?check ?metrics tiny_setup spec ~gen ~seed)
    .Harness.Experiment.o_result

let test_spec_names () =
  Alcotest.(check string) "carousel" "Carousel Basic"
    (Harness.Experiment.spec_name Harness.Experiment.Carousel_basic);
  Alcotest.(check string) "twopl" "2PL+2PC(POW)"
    (Harness.Experiment.spec_name (Harness.Experiment.Twopl Twopl.Preempt_on_wait));
  Alcotest.(check string) "natto" "Natto-RECSF"
    (Harness.Experiment.spec_name (Harness.Experiment.Natto Natto.Features.recsf));
  Alcotest.(check int) "eleven systems" 11 (List.length Harness.Experiment.eleven_systems);
  Alcotest.(check int) "eight systems" 8 (List.length Harness.Experiment.eight_systems);
  Alcotest.(check int) "five natto variants" 5
    (List.length Harness.Experiment.all_natto_variants)

let test_run_deterministic () =
  let gen = Workload.Ycsbt.gen () in
  let r1 = result_of Harness.Experiment.Carousel_basic ~gen ~seed:9 in
  let r2 = result_of Harness.Experiment.Carousel_basic ~gen ~seed:9 in
  Alcotest.(check int) "same commits" r1.Workload.Driver.committed_low
    r2.Workload.Driver.committed_low;
  Alcotest.(check (float 0.0001)) "same p95" (Workload.Driver.p95_low r1)
    (Workload.Driver.p95_low r2)

let test_run_seeds_differ () =
  let gen = Workload.Ycsbt.gen () in
  let r1 = result_of Harness.Experiment.Carousel_basic ~gen ~seed:1 in
  let r2 = result_of Harness.Experiment.Carousel_basic ~gen ~seed:2 in
  Alcotest.(check bool) "different latencies" true
    (Workload.Driver.p95_low r1 <> Workload.Driver.p95_low r2)

let test_repeated_summary () =
  let gen = Workload.Ycsbt.gen () in
  let s =
    Harness.Experiment.summarize
      (List.map
         (fun seed -> result_of (Harness.Experiment.Natto Natto.Features.ts) ~gen ~seed)
         [ 1; 2; 3 ])
  in
  Alcotest.(check bool) "p95 present" true (not (Float.is_nan s.Harness.Experiment.p95_high_ms));
  Alcotest.(check bool) "ci non-negative" true (s.Harness.Experiment.p95_high_ci >= 0.0);
  Alcotest.(check bool) "commits accumulated" true (s.Harness.Experiment.commits > 200);
  Alcotest.(check int) "nothing unfinished" 0 s.Harness.Experiment.unfinished

(* One run can be checked and metered at once: both observers are pure
   observation, so the result is that of a bare run, the history is clean,
   and the attribution and blame sums are exact. *)
let test_checked_and_metered () =
  let gen = Workload.Ycsbt.gen ~theta:0.95 () in
  let spec = Harness.Experiment.Natto Natto.Features.recsf in
  let plain = result_of spec ~gen ~seed:4 in
  let o = Harness.Experiment.run_outcome ~check:true ~metrics:true tiny_setup spec ~gen ~seed:4 in
  Alcotest.(check bool) "same result as a plain run" true (o.Harness.Experiment.o_result = plain);
  (match o.Harness.Experiment.o_check with
  | None -> Alcotest.fail "not checked"
  | Some (_, report) ->
      Alcotest.(check bool) "clean report" true (Check.Checker.ok report);
      Alcotest.(check bool) "history recorded" true (report.Check.Checker.checked_txns > 0));
  match o.Harness.Experiment.o_metrics with
  | None -> Alcotest.fail "not metered"
  | Some m ->
      let bds = m.Harness.Experiment.m_breakdowns in
      Alcotest.(check bool) "breakdowns present" true (bds <> []);
      List.iter
        (fun b ->
          Alcotest.(check int) "segments sum to e2e" b.Metrics.Attribution.t_e2e_us
            (Metrics.Attribution.total b.Metrics.Attribution.t_seg))
        bds;
      Alcotest.(check int) "blame sums exact" 0 (Metrics.Blame.max_mismatch bds)

let test_figures_dispatch () =
  (* An unknown name is rejected before any figure runs, even after known
     ones. *)
  Alcotest.(check bool) "unknown rejected" true
    (Harness.Figures.run Harness.Figures.Quick [ "table1"; "nope" ] = Error "nope");
  Alcotest.(check bool) "names include every figure" true
    (List.for_all
       (fun n -> List.mem n Harness.Figures.names)
       [ "table1"; "fig7ab"; "fig9"; "fig12"; "fig14"; "ablation"; "batchsweep"; "simthroughput" ]);
  Alcotest.(check bool) "all = names without simthroughput" true
    (Harness.Figures.all = List.filter (fun n -> n <> "simthroughput") Harness.Figures.names);
  Alcotest.(check bool) "names are unique" true
    (List.length (List.sort_uniq compare Harness.Figures.names)
    = List.length Harness.Figures.names)

let test_scale_env () =
  Alcotest.(check bool) "quick by default" true
    (Harness.Figures.scale_of_env () = Harness.Figures.Quick)

let () =
  Alcotest.run "harness"
    [
      ( "experiment",
        [
          Alcotest.test_case "spec names" `Quick test_spec_names;
          Alcotest.test_case "deterministic per seed" `Slow test_run_deterministic;
          Alcotest.test_case "seeds differ" `Slow test_run_seeds_differ;
          Alcotest.test_case "repeated summary" `Slow test_repeated_summary;
          Alcotest.test_case "checked and metered" `Slow test_checked_and_metered;
        ] );
      ( "figures",
        [
          Alcotest.test_case "dispatch" `Quick test_figures_dispatch;
          Alcotest.test_case "scale env" `Quick test_scale_env;
        ] );
    ]
