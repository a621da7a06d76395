(* The benchmark's phase-split cell must simulate exactly what the figures
   run: for the same setup, spec and seed, [Cells.run] and
   [Experiment.run_outcome ~check:true] process the same engine events and
   return the same driver result. Runs are cut to about 500 transactions
   (at most 8 simulated seconds) to keep the suite fast; the cluster of
   each workload is unchanged. *)

open Perfbench
module E = Harness.Experiment

let shortened (w : Cells.workload) =
  let d = w.Cells.setup.E.driver in
  let s = Simcore.Sim_time.seconds in
  let duration = Float.min 8. (500. /. d.Workload.Driver.rate_tps) in
  {
    w with
    Cells.setup =
      {
        w.Cells.setup with
        E.driver =
          {
            d with
            Workload.Driver.duration = s duration;
            warmup = s (duration /. 4.);
            cooldown = s (duration /. 4.);
            drain = s 2.;
          };
      };
  }

let same_as_harness (w : Cells.workload) () =
  let w = shortened w in
  let seed = 3 in
  let cell = Cells.run (Spans.create ()) w ~seed in
  let o = E.run_outcome ~check:true w.Cells.setup w.Cells.spec ~gen:(w.Cells.make_gen ()) ~seed in
  Alcotest.(check int) "events" o.E.o_events cell.Cells.events;
  Alcotest.(check bool) "driver result" true (o.E.o_result = cell.Cells.result);
  Alcotest.(check bool) "checker ok" true (Check.Checker.ok cell.Cells.report);
  Alcotest.(check bool) "something committed" true (Cells.commits cell.Cells.result > 0)

let spans_nest () =
  let t = Spans.create () in
  let v, _ = Spans.time t "outer" (fun () -> fst (Spans.time t "inner" (fun () -> 42))) in
  Alcotest.(check int) "value" 42 v;
  match Spans.spans t with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer first" "outer" outer.Spans.name;
      Alcotest.(check int) "outer is top-level" (-1) outer.Spans.parent;
      Alcotest.(check int) "inner's parent" outer.Spans.id inner.Spans.parent;
      Alcotest.(check bool) "inner inside outer" true
        (outer.Spans.start_s <= inner.Spans.start_s && inner.Spans.end_s <= outer.Spans.end_s)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let () =
  Alcotest.run "perfbench"
    [
      ( "cell",
        List.map
          (fun (w : Cells.workload) ->
            Alcotest.test_case (w.Cells.name ^ " matches run_outcome") `Quick (same_as_harness w))
          Cells.workloads );
      ("spans", [ Alcotest.test_case "nesting" `Quick spans_nest ]);
    ]
