(* Partial-abort tests (ISSUE 10): validated read-prefix semantics on
   Txnkit.Txn, claim serving equivalence at the Exec level (a claimed
   serve must reconstruct exactly what a full serve returns, for
   arbitrary — even stale — caches, because the server revalidates every
   claim), and end-to-end checked runs per optimistic family with the
   flag on and off. *)

open Simcore

let mk_txn ~id ?(priority = Txnkit.Txn.Low) ~reads ~writes () =
  Txnkit.Txn.make ~id ~client:0 ~priority ~read_set:reads ~write_set:writes
    ~born:Sim_time.zero ~wound_ts:id ()

(* Seed the cache as if attempt [txn.id] had read every key at version 1. *)
let fill_cache (txn : Txnkit.Txn.t) =
  Array.iter
    (fun key -> Txnkit.Txn.pa_note_read txn ~key ~data:(100 + key) ~version:1)
    txn.Txnkit.Txn.read_set

let roll (txn : Txnkit.Txn.t) =
  let next = txn.Txnkit.Txn.id + 1 in
  let n = Txnkit.Txn.pa_prepare_retry txn ~next_attempt:next in
  txn.Txnkit.Txn.id <- next;
  n

(* ------------------------------------------------------------------ *)
(* Prefix semantics *)

let test_write_set_only_conflict () =
  (* The conflicting key is only in the write set: every read stayed
     valid, so the whole read prefix is claimable. *)
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 2; 7 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:7;
  Alcotest.(check int) "full read prefix claimable" 3 (roll txn);
  Alcotest.(check int)
    "claims cover the read set" 3
    (List.length (Txnkit.Exec.claims_of txn txn.Txnkit.Txn.read_set))

let test_conflict_at_index_zero () =
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 3 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:1;
  Alcotest.(check int) "nothing claimable" 0 (roll txn);
  Alcotest.(check (list (triple int int int)))
    "no claims" []
    (Txnkit.Exec.claims_of txn txn.Txnkit.Txn.read_set)

let test_first_invalidated_key_min_combines () =
  (* Reports arrive in any order; the smallest invalidated index wins. *)
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 3 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:3;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  Alcotest.(check int) "prefix ends at the first invalidated read" 1 (roll txn);
  match Txnkit.Exec.claims_of txn txn.Txnkit.Txn.read_set with
  | [ (key, _, version) ] ->
      Alcotest.(check int) "claims the surviving prefix key" 1 key;
      Alcotest.(check int) "at its cached version" 1 version
  | l -> Alcotest.failf "expected exactly one claim, got %d" (List.length l)

let test_unknown_conflict_pins_zero () =
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 3 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:(-1);
  Alcotest.(check int) "unknown conflict claims nothing" 0 (roll txn)

let test_stale_attempt_report_ignored () =
  (* A ghost abort from a dead attempt must not shrink (or create) the
     prefix: with no live report at all the retry claims nothing. *)
  let txn = mk_txn ~id:2 ~reads:[ 1; 3; 5 ] ~writes:[ 3 ] () in
  Txnkit.Txn.enable_pa txn;
  fill_cache txn;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:7;
  Alcotest.(check int) "stale report claims nothing" 0 (roll txn)

let test_unpopulated_entries_not_claimed () =
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 2 ] () in
  Txnkit.Txn.enable_pa txn;
  Txnkit.Txn.pa_note_read txn ~key:3 ~data:9 ~version:4;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  (* Prefix allows indices 0 and 1, but only key 3 was ever cached. *)
  Alcotest.(check int) "only cached keys claimable" 1 (roll txn);
  Alcotest.(check (list (triple int int int)))
    "the cached key, at its cached version"
    [ (3, 9, 4) ]
    (Txnkit.Exec.claims_of txn txn.Txnkit.Txn.read_set)

let test_speculative_version_not_cached () =
  (* RECSF-forwarded values arrive with version -1: never claimable. *)
  let txn = mk_txn ~id:1 ~reads:[ 1; 3 ] ~writes:[ 2 ] () in
  Txnkit.Txn.enable_pa txn;
  Txnkit.Txn.pa_note_read txn ~key:1 ~data:7 ~version:(-1);
  Txnkit.Txn.pa_note_read txn ~key:3 ~data:8 ~version:2;
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  Alcotest.(check (list (triple int int int)))
    "only the authoritative read is claimable"
    [ (3, 8, 2) ]
    (roll txn |> ignore;
     Txnkit.Exec.claims_of txn txn.Txnkit.Txn.read_set)

let test_pa_off_claims_nothing () =
  let txn = mk_txn ~id:1 ~reads:[ 1; 3 ] ~writes:[ 2 ] () in
  Txnkit.Txn.pa_note_fail txn ~attempt:1 ~key:5;
  Txnkit.Txn.pa_note_read txn ~key:1 ~data:7 ~version:1;
  Alcotest.(check (list (triple int int int)))
    "partial aborts off: no claims" []
    (Txnkit.Exec.claims_of txn txn.Txnkit.Txn.read_set)

(* ------------------------------------------------------------------ *)
(* Claimed serving ≡ full serving (QCheck): the server revalidates every
   claimed version against its live store, so merging its reply with the
   cache reconstructs exactly the values a full serve would return — for
   any mix of valid, stale and bogus claims. *)

let serve_gen =
  QCheck.Gen.(
    let key = int_bound 11 in
    let keyset = map (List.sort_uniq compare) (list_size (int_range 1 6) key) in
    (* Per read key: how many writes precede the serve (version), and
       whether the claim for it is fresh, stale, or absent. *)
    pair keyset (list_size (return 16) (pair (int_bound 3) (int_bound 2))))

let arb_serve = QCheck.make ~print:(fun _ -> "<serve>") serve_gen

(* One generated case: a store where each read key has taken [writes]
   writes, and a claim per key that is fresh, stale, or absent. *)
let serve_case (keys, shape) =
  let keys = Array.of_list keys in
  let kv = Store.Kv.create () in
  let shape = Array.of_list shape in
  let plan k = shape.(k mod Array.length shape) in
  Array.iter
    (fun key ->
      let writes, _ = plan key in
      for v = 1 to writes do
        Store.Kv.put kv ~key ~data:((key * 10) + v) ~writer:(1000 + v)
      done)
    keys;
  let claims =
    Array.to_list keys
    |> List.filter_map (fun key ->
           let _, kind = plan key in
           let live = Store.Kv.get kv key in
           match kind with
           | 0 -> None (* unclaimed *)
           | 1 -> Some (key, live.Store.Kv.data, live.Store.Kv.version) (* fresh *)
           | _ -> Some (key, -9999, live.Store.Kv.version - 1) (* stale cache *))
  in
  (kv, keys, claims)

let claimed_vs_full case =
  let kv, keys, claims = serve_case case in
  let txn = mk_txn ~id:1 ~reads:(Array.to_list keys) ~writes:[] () in
  let merged = Txnkit.Exec.absorb txn ~attempt:1 claims (Txnkit.Exec.serve kv keys claims) in
  let full = Txnkit.Exec.read_values kv keys in
  let by_key l = List.sort compare l in
  if by_key merged <> by_key full then
    QCheck.Test.fail_reportf "claimed serve disagrees with full serve"
  else true

let qcheck_claimed_serve =
  QCheck.Test.make ~count:500 ~name:"claimed serve = full serve" arb_serve claimed_vs_full

(* Payload only ever shrinks, and only by the number of valid claims. *)
let claimed_payload case =
  let kv, keys, claims = serve_case case in
  let valid = List.length (List.filter (fun (k, _, v) -> Store.Kv.version kv k = v) claims) in
  List.length (Txnkit.Exec.serve kv keys claims) = Array.length keys - valid

let qcheck_claimed_payload =
  QCheck.Test.make ~count:500 ~name:"valid claims shrink the reply exactly" arb_serve
    claimed_payload

(* A store where keys 1, 3, 5 sit at versions 1, 2, 1, and a txn reading
   them that claims key 1 current and key 3 at a stale version. *)
let claim_round_trip ~attempt =
  let kv = Store.Kv.create () in
  Store.Kv.put kv ~key:1 ~data:10 ~writer:7;
  Store.Kv.put kv ~key:3 ~data:30 ~writer:7;
  Store.Kv.put kv ~key:3 ~data:31 ~writer:8;
  Store.Kv.put kv ~key:5 ~data:50 ~writer:7;
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 3 ] () in
  Txnkit.Txn.enable_pa txn;
  let claims = [ (1, 10, 1); (3, 30, 1) ] in
  let served = Txnkit.Exec.serve kv [| 1; 3; 5 |] claims in
  Alcotest.(check (list (triple int int int)))
    "the stale claim and the unclaimed key are served"
    [ (3, 31, 2); (5, 50, 1) ]
    served;
  let values = Txnkit.Exec.absorb txn ~attempt claims served in
  Alcotest.(check (list (triple int int int)))
    "merged values equal a full serve"
    (Txnkit.Exec.read_values kv [| 1; 3; 5 |])
    (List.sort compare values);
  txn

let test_absorb_credits_omitted () =
  let txn = claim_round_trip ~attempt:1 in
  Alcotest.(check int) "only the omitted claim is credited" 1 (Txnkit.Txn.pa_reused txn)

let test_absorb_stale_attempt () =
  let txn = claim_round_trip ~attempt:0 in
  Alcotest.(check int) "a stale attempt is credited nothing" 0 (Txnkit.Txn.pa_reused txn)

let test_salvage_bounds () =
  let kv = Store.Kv.create () in
  List.iter (fun key -> Store.Kv.put kv ~key ~data:(key * 10) ~writer:7) [ 1; 3; 5 ];
  let reads = [| 1; 3; 5 |] in
  let txn = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 3; 7 ] () in
  Txnkit.Txn.enable_pa txn;
  let salvage fail_key = Txnkit.Exec.salvage_reads kv txn ~reads ~fail_key in
  let whole = Txnkit.Exec.read_values kv reads in
  let triples = Alcotest.(list (triple int int int)) in
  Alcotest.check triples "unknown conflict salvages nothing" [] (salvage (-1));
  Alcotest.check triples "read index 0 salvages nothing" [] (salvage 1);
  Alcotest.check triples "stops before the failed read" [ (1, 10, 1); (3, 30, 1) ] (salvage 5);
  Alcotest.check triples "write-set-only conflict salvages the whole slice" whole (salvage 7);
  let off = mk_txn ~id:1 ~reads:[ 1; 3; 5 ] ~writes:[ 3; 7 ] () in
  Alcotest.check triples "partial aborts off salvages nothing" []
    (Txnkit.Exec.salvage_reads kv off ~reads ~fail_key:7)

(* ------------------------------------------------------------------ *)
(* End to end: each family, checked, with partial aborts on. The checker
   (strict serializability + increment conservation) is the oracle that
   resumed retries read exactly what full retries would have. *)

let quick_driver ~pa =
  {
    Workload.Driver.default_config with
    Workload.Driver.rate_tps = 60.;
    duration = Sim_time.seconds 4.;
    warmup = Sim_time.seconds 1.;
    cooldown = Sim_time.seconds 1.;
    drain = Sim_time.seconds 10.;
    partial_abort = pa;
  }

let quick_setup ~pa =
  { Harness.Experiment.default_setup with Harness.Experiment.driver = quick_driver ~pa }

let families =
  [
    Harness.Experiment.Twopl Twopl.Plain;
    Harness.Experiment.Tapir;
    Harness.Experiment.Carousel_basic;
    Harness.Experiment.Carousel_fast;
    Harness.Experiment.Natto Natto.Features.ts;
    Harness.Experiment.Natto Natto.Features.recsf;
  ]

(* Checked runs over [seeds], farmed over [jobs] domains and merged in
   seed order; merging raises on any checker violation. *)
let checked_summary ?(jobs = 1) setup spec ~gen ~seeds =
  Harness.Pool.map_ordered ~jobs
    (fun seed -> Harness.Experiment.run_outcome ~check:true setup spec ~gen ~seed)
    seeds
  |> List.map Harness.Experiment.merge_outcome
  |> Harness.Experiment.summarize

let test_e2e_pa_checked spec () =
  let gen = Workload.Ycsbt.gen ~theta:0.99 () in
  let s = checked_summary (quick_setup ~pa:true) spec ~gen ~seeds:[ 1 ] in
  Alcotest.(check bool) "committed work" true (s.Harness.Experiment.commits > 0);
  Alcotest.(check bool)
    "retries resumed from a validated prefix" true
    (s.Harness.Experiment.partial_restarts > 0);
  Alcotest.(check bool)
    "claimed at least one key per resumed retry" true
    (s.Harness.Experiment.keys_reused >= s.Harness.Experiment.partial_restarts)

let test_e2e_off_counters_zero () =
  let gen = Workload.Ycsbt.gen ~theta:0.99 () in
  let s =
    checked_summary (quick_setup ~pa:false)
      (Harness.Experiment.Natto Natto.Features.recsf) ~gen ~seeds:[ 1 ]
  in
  Alcotest.(check int) "no partial restarts with the flag off" 0
    s.Harness.Experiment.partial_restarts;
  Alcotest.(check int) "no keys reused with the flag off" 0 s.Harness.Experiment.keys_reused

let test_e2e_jobs_identical () =
  let gen = Workload.Ycsbt.gen ~theta:0.99 () in
  let go jobs =
    checked_summary ~jobs (quick_setup ~pa:true)
      (Harness.Experiment.Natto Natto.Features.recsf) ~gen ~seeds:[ 1; 2 ]
  in
  Alcotest.(check bool) "jobs 1 and 4 summaries identical" true (go 1 = go 4)

let () =
  Alcotest.run "partial"
    [
      ( "prefix",
        [
          Alcotest.test_case "write-set-only conflict keeps the read prefix" `Quick
            test_write_set_only_conflict;
          Alcotest.test_case "conflict at index 0 claims nothing" `Quick
            test_conflict_at_index_zero;
          Alcotest.test_case "first invalidated key min-combines" `Quick
            test_first_invalidated_key_min_combines;
          Alcotest.test_case "unknown conflict pins the prefix to 0" `Quick
            test_unknown_conflict_pins_zero;
          Alcotest.test_case "stale attempt report is ignored" `Quick
            test_stale_attempt_report_ignored;
          Alcotest.test_case "unpopulated cache entries are not claimed" `Quick
            test_unpopulated_entries_not_claimed;
          Alcotest.test_case "speculative (version -1) reads never cached" `Quick
            test_speculative_version_not_cached;
          Alcotest.test_case "claims empty with partial aborts off" `Quick
            test_pa_off_claims_nothing;
        ] );
      ( "serve",
        [
          QCheck_alcotest.to_alcotest qcheck_claimed_serve;
          QCheck_alcotest.to_alcotest qcheck_claimed_payload;
          Alcotest.test_case "absorb credits exactly the omitted claims" `Quick
            test_absorb_credits_omitted;
          Alcotest.test_case "absorb credits a stale attempt nothing" `Quick
            test_absorb_stale_attempt;
          Alcotest.test_case "salvage stays inside the valid prefix" `Quick test_salvage_bounds;
        ] );
      ( "e2e",
        List.map
          (fun spec ->
            Alcotest.test_case
              (Printf.sprintf "%s pa-on checked" (Harness.Experiment.spec_name spec))
              `Slow (test_e2e_pa_checked spec))
          families
        @ [
            Alcotest.test_case "pa-off counters stay zero" `Slow test_e2e_off_counters_zero;
            Alcotest.test_case "jobs 1 = jobs 4 with pa on" `Slow test_e2e_jobs_identical;
          ] );
    ]
