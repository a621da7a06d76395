open Simcore

type counter = { mutable c_total : int; mutable c_last : int }
type hist = { mutable h : Simstats.Histogram.t }

type instrument =
  | Gauge of (unit -> float)
  | Cumulative of { read : unit -> int; mutable last : int }
  | Counter of counter

type window = {
  w_start : Sim_time.t;
  w_end : Sim_time.t;
  samples : (string * float) list;
}

type attempt_rec = {
  a_txn : int;
  a_start : Sim_time.t;
  a_end : Sim_time.t;
  a_committed : bool;
  a_reads : int;
  a_reused : int;
}

type txn_rec = {
  born : Sim_time.t;
  finished : Sim_time.t;
  high : bool;
  attempts : attempt_rec list;
}

type t = {
  mutable on : bool;
  mutable interval : Sim_time.t;
  mutable instruments : (string * instrument) list;  (** reversed *)
  mutable hists : (string * hist) list;  (** reversed *)
  mutable windows : window list;  (** reversed *)
  mutable last_sample : Sim_time.t;
  mutable txns : txn_rec list;  (** reversed *)
}

let create () =
  {
    on = false;
    interval = Sim_time.ms 100.;
    instruments = [];
    hists = [];
    windows = [];
    last_sample = Sim_time.zero;
    txns = [];
  }

let enable ?interval t =
  t.on <- true;
  match interval with
  | Some i when i > Sim_time.zero -> t.interval <- i
  | Some _ -> invalid_arg "Registry.enable: interval must be positive"
  | None -> ()

let enabled t = t.on
let interval t = t.interval

let gauge t name f = t.instruments <- (name, Gauge f) :: t.instruments

let cumulative t name read =
  t.instruments <- (name, Cumulative { read; last = read () }) :: t.instruments

let counter t name =
  let c = { c_total = 0; c_last = 0 } in
  t.instruments <- (name, Counter c) :: t.instruments;
  c

let add c n = c.c_total <- c.c_total + n
let counter_total c = c.c_total

let histogram t name =
  let h = { h = Simstats.Histogram.create () } in
  t.hists <- (name, h) :: t.hists;
  h

let observe h v = Simstats.Histogram.add h.h v
let hist_count h = Simstats.Histogram.count h.h
let hist_percentile h ~p = Simstats.Histogram.percentile h.h ~p
let histograms t = List.rev t.hists

let sample_instrument (name, ins) =
  match ins with
  | Gauge f -> (name, f ())
  | Cumulative c ->
      let v = c.read () in
      let d = v - c.last in
      c.last <- v;
      (name, float_of_int d)
  | Counter c ->
      let d = c.c_total - c.c_last in
      c.c_last <- c.c_total;
      (name, float_of_int d)

let sample_now t ~now =
  if t.on && now > t.last_sample then begin
    let samples = List.rev_map sample_instrument t.instruments in
    t.windows <- { w_start = t.last_sample; w_end = now; samples } :: t.windows;
    t.last_sample <- now
  end

let run_sampler t ~engine ~until =
  if t.on then begin
    t.last_sample <- Engine.now engine;
    let rec tick prev =
      let next = Sim_time.add prev t.interval in
      if next <= until then
        ignore
          (Engine.schedule_at engine next (fun () ->
               sample_now t ~now:next;
               tick next))
    in
    tick t.last_sample
  end

let windows t = List.rev t.windows

let reset t ~now =
  t.windows <- [];
  t.txns <- [];
  t.last_sample <- now;
  List.iter
    (fun (_, ins) ->
      match ins with
      | Gauge _ -> ()
      | Cumulative c -> c.last <- c.read ()
      | Counter c ->
          c.c_total <- 0;
          c.c_last <- 0)
    t.instruments;
  List.iter (fun (_, h) -> h.h <- Simstats.Histogram.create ()) t.hists

let seal t =
  t.on <- false;
  t.instruments <- []

let note_txn t rec_ = t.txns <- rec_ :: t.txns
let txn_records t = List.rev t.txns
