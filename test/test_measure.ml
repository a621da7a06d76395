(* Tests for the measurement substrate: windows, proxies, client caches. *)

open Simcore
open Netsim

let test_window_percentile () =
  let w = Measure.Window.create ~span:(Sim_time.seconds 1.) in
  for i = 1 to 100 do
    Measure.Window.add w ~now:(Sim_time.ms (float_of_int i)) (float_of_int i)
  done;
  (match Measure.Window.percentile w ~now:(Sim_time.ms 100.) ~p:0.95 with
  | Some v -> Alcotest.(check (float 0.01)) "p95" 95.0 v
  | None -> Alcotest.fail "empty");
  (match Measure.Window.percentile w ~now:(Sim_time.ms 100.) ~p:0.50 with
  | Some v -> Alcotest.(check (float 0.01)) "p50" 50.0 v
  | None -> Alcotest.fail "empty")

let test_window_expiry () =
  let w = Measure.Window.create ~span:(Sim_time.ms 100.) in
  Measure.Window.add w ~now:(Sim_time.ms 0.) 1.0;
  Measure.Window.add w ~now:(Sim_time.ms 50.) 2.0;
  Alcotest.(check int) "both in" 2 (Measure.Window.count w ~now:(Sim_time.ms 60.));
  Alcotest.(check int) "first expired" 1 (Measure.Window.count w ~now:(Sim_time.ms 120.));
  Alcotest.(check (option (float 0.01))) "mean of survivor" (Some 2.0)
    (Measure.Window.mean w ~now:(Sim_time.ms 120.));
  Alcotest.(check int) "all gone" 0 (Measure.Window.count w ~now:(Sim_time.ms 500.));
  Alcotest.(check (option (float 0.01))) "empty percentile" None
    (Measure.Window.percentile w ~now:(Sim_time.ms 500.) ~p:0.95)

let make_world () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let topo = Topology.azure5 in
  (* node 0: VA server; node 1: SG server; node 2: VA proxy; node 3: VA client *)
  let node_dc = [| 0; 4; 0; 0 |] in
  let cpus = Array.init 4 (fun _ -> Cpu.create engine) in
  let net = Network.create ~engine ~rng ~topo ~node_dc ~cpus () in
  let clock = Clock.create ~rng ~max_skew:(Sim_time.ms 1.) ~n_nodes:4 in
  (engine, net, clock)

let test_proxy_estimates_owd () =
  let engine, net, clock = make_world () in
  let proxy = Measure.Proxy.create ~engine ~net ~clock ~node:2 ~targets:[| 0; 1 |] in
  Engine.run_until engine (Sim_time.seconds 2.);
  (* VA -> SG one-way delay is 107ms; the p95 estimate (which includes up to
     ~2ms of clock skew) must land close. *)
  (match Measure.Proxy.estimate_us proxy ~target:1 with
  | Some est ->
      let ms = est /. 1000. in
      if ms < 100. || ms > 115. then Alcotest.failf "SG estimate off: %.2fms" ms
  | None -> Alcotest.fail "no estimate for SG");
  (* VA -> VA (intra-DC) should be sub-millisecond plus skew. *)
  (match Measure.Proxy.estimate_us proxy ~target:0 with
  | Some est -> if Float.abs est > 4000. then Alcotest.failf "VA estimate off: %.0fus" est
  | None -> Alcotest.fail "no estimate for VA");
  Alcotest.(check bool) "enough samples" true (Measure.Proxy.sample_count proxy ~target:1 > 50);
  Measure.Proxy.stop proxy

let test_proxy_tracks_p95_not_mean () =
  (* With heavy-tailed (Pareto) delays the p95 estimate must exceed the mean
     delay: that is the whole point of Domino's conservative estimate. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:6 in
  let topo = Topology.with_cv Topology.azure5 0.3 in
  let node_dc = [| 0; 4; 0 |] in
  let cpus = Array.init 3 (fun _ -> Cpu.create engine) in
  let net = Network.create ~engine ~rng ~topo ~node_dc ~cpus () in
  let clock = Clock.create ~rng ~max_skew:Sim_time.zero ~n_nodes:3 in
  let proxy = Measure.Proxy.create ~engine ~net ~clock ~node:2 ~targets:[| 1 |] in
  Engine.run_until engine (Sim_time.seconds 3.);
  (match Measure.Proxy.estimate_us proxy ~target:1 with
  | Some est ->
      let mean_owd = 107_000. in
      if est <= mean_owd then
        Alcotest.failf "p95 estimate %.0fus should exceed mean owd %.0fus" est mean_owd
  | None -> Alcotest.fail "no estimate");
  Measure.Proxy.stop proxy

let test_delay_cache_follows_proxy () =
  let engine, net, clock = make_world () in
  let proxy = Measure.Proxy.create ~engine ~net ~clock ~node:2 ~targets:[| 0; 1 |] in
  let cache = Measure.Delay_cache.create ~engine ~net ~node:3 ~proxy in
  Alcotest.(check (option (float 0.1))) "cold cache" None
    (Measure.Delay_cache.estimate_us cache ~target:1);
  Engine.run_until engine (Sim_time.seconds 2.);
  (match Measure.Delay_cache.estimate_us cache ~target:1 with
  | Some est ->
      let proxy_est = Option.get (Measure.Proxy.estimate_us proxy ~target:1) in
      (* The cache lags by at most one refresh, so it should be close. *)
      if Float.abs (est -. proxy_est) > 20_000. then
        Alcotest.failf "cache diverged: %.0f vs %.0f" est proxy_est
  | None -> Alcotest.fail "cache never warmed");
  Measure.Delay_cache.stop cache;
  Measure.Proxy.stop proxy

let () =
  Alcotest.run "measure"
    [
      ( "window",
        [
          Alcotest.test_case "percentile" `Quick test_window_percentile;
          Alcotest.test_case "expiry" `Quick test_window_expiry;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "estimates one-way delay" `Quick test_proxy_estimates_owd;
          Alcotest.test_case "p95 exceeds mean under variance" `Quick
            test_proxy_tracks_p95_not_mean;
        ] );
      ("cache", [ Alcotest.test_case "follows proxy" `Quick test_delay_cache_follows_proxy ]);
    ]
