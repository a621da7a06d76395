open Simcore
module E = Harness.Experiment

type workload = {
  name : string;
  spec : E.system_spec;
  setup : E.setup;
  make_gen : unit -> Workload.Gen.t;
  tail_p : float;
}

let driver ~rate ~duration ~drain =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = rate;
    duration = Sim_time.seconds duration;
    warmup = Sim_time.seconds (duration /. 4.);
    cooldown = Sim_time.seconds (duration /. 4.);
    drain = Sim_time.seconds drain;
  }

(* The contended regime: retries, aborts, Raft and netsim carry host time.
   At Zipf 0.75 and 50 txn/s, Natto-RECSF gives up on almost no transaction
   after 100 retries (one per cell on 1 seed in 25 tried); at 0.8 it gives
   up on several per run. 120 s gives the high class ~290 in-window
   samples. *)
let ycsbt_contended =
  {
    name = "ycsbt-contended";
    spec = E.Natto Natto.Features.recsf;
    setup = { E.default_setup with E.driver = driver ~rate:50. ~duration:120. ~drain:40. };
    make_gen = (fun () -> Workload.Ycsbt.gen ~theta:0.75 ());
    tail_p = 0.95;
  }

(* The scale smoke: 10k clients' delay-cache polls over netsim's 10k-node
   tables are most of host time. The hot set is 100k users, not SmallBank's
   1k: with 1k (or 10k) hot users Natto-RECSF gives up on a few low-priority
   transactions per run after 100 immediate retries and leaves some still
   retrying at the horizon; with 100k it gave up on one per cell on 1 seed
   in 25 tried. *)
let smallbank_10k =
  {
    name = "smallbank-10k";
    spec = E.Natto Natto.Features.recsf;
    setup =
      {
        E.default_setup with
        E.clients_per_dc = 2000;
        E.driver = driver ~rate:500. ~duration:4. ~drain:3.;
      };
    make_gen = (fun () -> Workload.Smallbank.gen ~hot_users:100_000 ());
    tail_p = 0.85;
  }

(* Batchsweep's batched regime under 2PL+2PC: the rpc batcher, Raft group
   commit, lock tables and the checker's largest history. No proxies, so a
   measurement-plane change must leave it unchanged. *)
let retwis_batched =
  {
    name = "retwis-batched";
    spec = E.Twopl Twopl.Plain;
    setup =
      {
        E.default_setup with
        E.topo = Netsim.Topology.local3;
        E.n_partitions = 4;
        E.net_config =
          { Netsim.Network.default_config with Netsim.Network.msg_cost = Sim_time.us 25 };
        E.driver = driver ~rate:4000. ~duration:6. ~drain:5.;
        E.batching = Some Rpc.Batcher.default_config;
      };
    make_gen = (fun () -> Workload.Retwis.gen ~theta:0.0 ());
    tail_p = 0.99;
  }

let workloads = [ ycsbt_contended; smallbank_10k; retwis_batched ]
let find name = List.find_opt (fun w -> w.name = name) workloads

(* The harness's instantiation, case for case. *)
let system_of spec cluster =
  match spec with
  | E.Carousel_basic -> Carousel.Basic.make cluster
  | E.Carousel_fast -> Carousel.Fast.make cluster
  | E.Tapir -> Tapir.make cluster
  | E.Twopl v -> Twopl.make cluster ~variant:v
  | E.Natto f -> Natto.Protocol.make cluster ~features:f
  | E.Quecc v -> Quecc.make cluster ~variant:v

let family_span = function
  | E.Carousel_basic -> "carousel.basic.make"
  | E.Carousel_fast -> "carousel.fast.make"
  | E.Tapir -> "tapir.make"
  | E.Twopl _ -> "twopl.make"
  | E.Natto _ -> "natto.protocol.make"
  | E.Quecc _ -> "quecc.make"

let needs_proxies = function E.Natto _ -> true | _ -> false

let build_cluster ?trace ?metrics ?with_proxies w ~seed =
  let s = w.setup in
  Txnkit.Cluster.build ~topo:s.E.topo ~n_partitions:s.E.n_partitions
    ~clients_per_dc:s.E.clients_per_dc ~net_config:s.E.net_config
    ~with_raft:(match w.spec with E.Tapir -> false | _ -> true)
    ~with_proxies:(Option.value with_proxies ~default:(needs_proxies w.spec))
    ?batching:s.E.batching ?trace ?metrics ~seed ()

type cell = {
  setup_s : float;
  simulate_s : float;
  check_s : float;
  cell_s : float;
  minor_words : float;
  major_gcs : int;
  cluster : Txnkit.Cluster.t;
  result : Workload.Driver.result;
  events : int;
  report : Check.Checker.report;
}

let setup ?trace ?metrics spans w ~seed =
  let gen, _ = Spans.time spans "workload.gen" w.make_gen in
  let cluster, _ =
    Spans.time spans "txnkit.cluster.build" (fun () -> build_cluster ?trace ?metrics w ~seed)
  in
  Check.Recorder.enable cluster.Txnkit.Cluster.recorder;
  let system, _ = Spans.time spans (family_span w.spec) (fun () -> system_of w.spec cluster) in
  (gen, cluster, system)

let run ?trace ?metrics spans w ~seed =
  (* Start every cell from the same collected heap, so its garbage-collector
     work does not depend on what ran before it. *)
  Gc.full_major ();
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let cell, cell_s =
    Spans.time spans "cell" (fun () ->
        let (gen, cluster, system), setup_s =
          Spans.time spans "setup" (fun () -> setup ?trace ?metrics spans w ~seed)
        in
        let words0 = Gc.minor_words () in
        let result, simulate_s =
          Spans.time spans "workload.driver.run" (fun () ->
              Workload.Driver.run cluster system ~gen
                { w.setup.E.driver with Workload.Driver.seed })
        in
        let minor_words = Gc.minor_words () -. words0 in
        let report, check_s =
          Spans.time spans "check" (fun () ->
              let history, _ =
                Spans.time spans "check.recorder.history" (fun () ->
                    Check.Recorder.history cluster.Txnkit.Cluster.recorder)
              in
              fst
                (Spans.time spans "check.checker.check" (fun () ->
                     Check.Checker.check ~conservation:gen.Workload.Gen.increment_rmw history)))
        in
        {
          setup_s;
          simulate_s;
          check_s;
          cell_s = 0.;
          minor_words;
          major_gcs = 0;
          cluster;
          result;
          events = Engine.events_processed cluster.Txnkit.Cluster.engine;
          report;
        })
  in
  { cell with cell_s; major_gcs = (Gc.quick_stat ()).Gc.major_collections - major0 }

let run_idle spans w ~seed ~with_proxies ~until =
  let cluster = build_cluster ~with_proxies w ~seed in
  snd
    (Spans.time spans
       (if with_proxies then "simcore.engine.run_until.proxies" else "simcore.engine.run_until.bare")
       (fun () -> Engine.run_until cluster.Txnkit.Cluster.engine until))

let commits r = Array.length r.Workload.Driver.commit_log
let generated r = commits r + r.Workload.Driver.failed + r.Workload.Driver.unfinished
