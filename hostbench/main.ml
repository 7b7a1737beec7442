(** Host-time benchmark driver (see README.md beside this file).

    {v main.exe --workload W --seed N --seconds S --trace 0|1 v}

    Runs one workload on the current code, checks every output against
    native execution of the same image, and prints human-readable lines
    followed, as the last line, by one JSON object: the end-to-end
    metrics with [--trace 0], the per-layer metrics with [--trace 1].
    Each layer is timed from outside, around calls into its public
    functions; nothing inside the library is instrumented. *)

open Hostbench
module W = Workloads.Workload

let now = Unix.gettimeofday
let t_main = now ()
let rec_ = Spans.recorder ()
let span ?parent ?req name f = Spans.time rec_ ?parent ?req name f

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("hostbench: " ^ s);
      exit 1)
    fmt

let pr fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Fixed settings                                                     *)
(* ------------------------------------------------------------------ *)

(* Every engine, pool and server setting is the shipped one: the
   committed bundle.json for serving, Options.default for batch, the
   default tick of Server.run.  The only override is the pool's domain
   count, 1, sized for a 2-core host: one core for the worker, one for
   the client and the select loop. *)
let bundle_path = "bundle.json"
let serve_domains = 1

(* serve_closed_short: the serving variants with 1.5-7 ms of warm
   service, so the front end dominates a request *)
let short_keys = [ "gzip"; "perlbmk"; "parser"; "applu"; "mesa" ]

(* serve_closed_short: the highest percentile its latency tail may
   use.  Server.run answers on its 10 ms tick, so closed-loop latencies
   cluster at one tick (about 80% of requests), two (about 20%: mesa
   is served in close to a tick) and three (a few, when the host
   stalls).  p99 sits on the two/three-tick boundary and jumped between
   23 and 35 ms from run to run; p90 sits inside the two-tick cluster. *)
let closed_tail_cap = 90.0

(* serve_open_mixed: offered Poisson rate in requests per second, about
   60% of what one worker serves of the full 20-variant mix (mean warm
   service about 40 ms on a 2-core host) *)
let open_rate = 15.0

(* distinct request seeds per key; native references are computed for
   each (key, seed) during set-up *)
let seeds_per_key = 2

(* set-ups per run; setup_s is their median.  Batch set-up is only
   assembly (milliseconds), so it is repeated more often; the open
   loop's set-up warms 20 variants (about 2 s), so it is repeated less. *)
let serve_setup_reps = 7
let open_setup_reps = 3
let batch_setup_reps = 41

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let print_metrics ms =
  List.iter (fun m -> pr "  %-28s %14.6g %s\n" m.m_name m.m_value m.m_unit) ms

let print_result ~correct ~attempted ~failed (ms : metric list) =
  List.iter
    (fun m -> if not (Float.is_finite m.m_value) then die "metric %s is not finite" m.m_name)
    ms;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.m_name m.m_value
             m.m_unit)
         ms)
  in
  pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

(** Peak resident set of this process so far (VmHWM), in MB. *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> die "no VmHWM in /proc/self/status"
  in
  let v = find () in
  close_in ic;
  v

(* ------------------------------------------------------------------ *)
(* Native reference                                                   *)
(* ------------------------------------------------------------------ *)

type native = { n_out : int list; n_cycles : int; n_insns : int }

(** Interpret an image natively; the span times [Vm.Sched.run] only. *)
let run_native ?req (img : Asm.Image.t) (input : int list) : native =
  let m = Vm.Machine.create () in
  Vm.Machine.set_input m input;
  ignore (Asm.Image.load m img);
  let o = span ?req "vm.native_run" (fun _ -> Vm.Sched.run ~emulate:false m) in
  if o.Vm.Sched.stop <> Vm.Interp.Halted then
    die "native run failed: %s" (Vm.Interp.stop_to_string o.Vm.Sched.stop);
  { n_out = Vm.Machine.output m; n_cycles = o.Vm.Sched.cycles; n_insns = o.Vm.Sched.insns }

(* ------------------------------------------------------------------ *)
(* Engine counters                                                    *)
(* ------------------------------------------------------------------ *)

(* Engine.stats fields reported per run, with the layer that does the
   work; ibl.hit_ratio is derived from lookups and misses. *)
let counters : (string * string * (Rio.Stats.t -> int)) list =
  let open Rio.Stats in
  [ ("blockbuild.blocks_built", "count/run", fun s -> s.blocks_built);
    ("trace.traces_built", "count/run", fun s -> s.traces_built);
    ("emit.cache_bytes", "bytes/run", fun s -> s.cache_bytes_bb + s.cache_bytes_trace);
    ("emit.direct_links", "count/run", fun s -> s.direct_links);
    ("dispatch.context_switches", "count/run", fun s -> s.context_switches);
    ("ibl.lookups", "count/run", fun s -> s.ibl_lookups);
    ("opt.traces_optimized", "count/run", fun s -> s.opt_traces);
    ("opt.insns_removed", "count/run", fun s -> s.opt_insns_removed);
    ("opt.spec_guards", "count/run", fun s -> s.spec_guards_ind + s.spec_guards_const);
    ("opt.spec_violations", "count/run", fun s -> s.spec_violations);
    ("engine.runtime_cycles", "cycles/run", fun s -> s.runtime_cycles) ]

(** Accumulated counter deltas over [runs] engine runs. *)
type counts = { c_sums : int array; mutable c_lookups : int; mutable c_misses : int;
                mutable c_runs : int }

let counts () = { c_sums = Array.make (List.length counters) 0; c_lookups = 0; c_misses = 0;
                  c_runs = 0 }

(** Add the difference [after - before] covering [runs] runs. *)
let add_counts c ~runs (before : Rio.Stats.t option) (after : Rio.Stats.t) =
  let get f = f after - match before with Some b -> f b | None -> 0 in
  List.iteri (fun i (_, _, f) -> c.c_sums.(i) <- c.c_sums.(i) + get f) counters;
  c.c_lookups <- c.c_lookups + get (fun s -> s.Rio.Stats.ibl_lookups);
  c.c_misses <- c.c_misses + get (fun s -> s.Rio.Stats.ibl_misses);
  c.c_runs <- c.c_runs + runs

let count_metrics c =
  let per v = float_of_int v /. float_of_int (max 1 c.c_runs) in
  List.mapi (fun i (n, u, _) -> metric n u (per c.c_sums.(i))) counters
  @ [ metric "ibl.hit_ratio" "ratio"
        (if c.c_lookups = 0 then 0.0
         else float_of_int (c.c_lookups - c.c_misses) /. float_of_int c.c_lookups) ]

(* ------------------------------------------------------------------ *)
(* Result bookkeeping shared by the workloads                         *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable diverged : int }

let tally () = { attempted = 0; failed = 0; diverged = 0 }

let diverge t fmt =
  Printf.ksprintf
    (fun s ->
      t.failed <- t.failed + 1;
      t.diverged <- t.diverged + 1;
      pr "!! divergence: %s\n%!" s)
    fmt

(** End-to-end metrics every workload reports. *)
type e2e = {
  setup_s : float;
  app_mips : float;
  sim_vs_native : float;
  rps : float;
  lat_ms : float array;  (** per ok request / run *)
  sim_per_req : float;
}

let e2e_metrics ?tail_cap (e : e2e) : metric list =
  let tl = Arith.tail ?cap:tail_cap e.lat_ms in
  pr "latency tail: p%g over %d samples (%d beyond)\n" tl.Arith.t_pct tl.Arith.t_samples
    tl.Arith.t_beyond;
  [ metric "setup_s" "s" e.setup_s;
    metric "app_mips" "Minsn/s" e.app_mips;
    metric "sim_cycles_vs_native" "ratio" e.sim_vs_native;
    metric "throughput_rps" "1/s" e.rps;
    metric "latency_p50_ms" "ms" (Arith.median e.lat_ms);
    metric "latency_tail_ms" "ms" tl.Arith.t_value;
    metric "sim_cycles_per_req" "cycles" e.sim_per_req;
    metric "peak_rss_mb" "MB" (peak_rss_mb ()) ]

let timed_setup ~reps (f : unit -> 'a) : 'a * float =
  let times = Array.make reps 0.0 in
  let v = ref None in
  for i = 0 to reps - 1 do
    let t0 = now () in
    v := Some (f ());
    times.(i) <- now () -. t0;
    (* earlier set-ups are dropped; collect them before the next *)
    Gc.full_major ()
  done;
  pr "set-up: %s s (median of %d)\n%!"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") times)))
    reps;
  (Option.get !v, Arith.median times)

let spans_path workload seed =
  let dir = ".hostbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Printf.sprintf "%s/spans-%s-%d.tsv" dir workload seed

(* ------------------------------------------------------------------ *)
(* batch_cold: what rio_run -w X does, for all 20 programs             *)
(* ------------------------------------------------------------------ *)

type batch_pass = {
  bp_insns : int;
  bp_secs : float;
  bp_lat : float list;
  bp_cycles : int list;
}

let batch_cold ~seed ~seconds ~traced =
  let wls = Array.of_list Workloads.Suite.all in
  let n = Array.length wls in
  let images, setup_s =
    timed_setup ~reps:batch_setup_reps (fun () ->
        Array.mapi (fun i w -> span ~req:i "asm.assemble" (fun _ -> Asm.Assemble.assemble w.W.program)) wls)
  in
  let t = tally () in
  let rng = Arith.rng seed in
  (* per-program (rio cycles, native cycles) of the first pass; later
     passes must repeat them exactly *)
  let first : (int * int) option array = Array.make n None in
  let counts = counts () in
  let native_insns = ref 0 in
  let run_one ~warm i =
    let w = wls.(i) and img = images.(i) in
    let native = run_native ~req:i img w.W.input in
    native_insns := !native_insns + native.n_insns;
    Gc.full_major ();
    t.attempted <- t.attempted + 1;
    let t0 = now () in
    let m = span ~req:i "vm.machine_create" (fun _ -> Vm.Machine.create ()) in
    Vm.Machine.set_input m w.W.input;
    ignore (span ~req:i "asm.image_load" (fun _ -> Asm.Image.load m img));
    let rt = span ~req:i "engine.create" (fun _ -> Rio.Engine.create ~opts:Rio.Options.default m) in
    let o = span ~req:i "engine.run_cold" (fun _ -> Rio.Engine.run rt) in
    let secs = now () -. t0 in
    let out = Vm.Machine.output m in
    if o.Rio.Engine.reason <> Rio.Engine.All_exited || out <> native.n_out then
      diverge t "%s: RIO output differs from native (%s)" w.W.name
        (Rio.Engine.stop_reason_to_string o.Rio.Engine.reason);
    (match first.(i) with
     | None -> first.(i) <- Some (o.Rio.Engine.cycles, native.n_cycles)
     | Some (rc, nc) ->
         if rc <> o.Rio.Engine.cycles || nc <> native.n_cycles then
           diverge t "%s: simulated cycles changed between passes (%d/%d vs %d/%d)" w.W.name
             o.Rio.Engine.cycles native.n_cycles rc nc);
    if warm then begin
      add_counts counts ~runs:1 None (Rio.Engine.stats rt);
      span ~req:i "engine.reset" (fun _ ->
          Rio.Engine.reset_for_reuse rt ~restore:(fun m ~zeroed ->
              Asm.Image.restore m img ~zeroed));
      ignore (Vm.Machine.add_thread m ~entry:img.Asm.Image.entry
                ~stack_top:Asm.Image.default_stack_top);
      Vm.Machine.set_input m w.W.input;
      let o2 = span ~req:i "engine.run_warm" (fun _ -> Rio.Engine.run rt) in
      if o2.Rio.Engine.reason <> Rio.Engine.All_exited || Vm.Machine.output m <> native.n_out
      then diverge t "%s: warm re-run output differs from native" w.W.name
    end;
    (o.Rio.Engine.insns, secs, o.Rio.Engine.cycles)
  in
  (* whole passes, each over every program in a seeded order, until the
     time is up; at least two so the cycle-repeat check has teeth *)
  let phase ~warm =
    let t_end = now () +. seconds in
    let passes = ref [] in
    while List.length !passes < 2 || now () < t_end do
      let order = Arith.shuffle rng (Array.init n Fun.id) in
      let runs = Array.map (fun i -> run_one ~warm i) order in
      passes :=
        {
          bp_insns = Array.fold_left (fun a (x, _, _) -> a + x) 0 runs;
          bp_secs = Array.fold_left (fun a (_, s, _) -> a +. s) 0.0 runs;
          bp_lat = Array.to_list (Array.map (fun (_, s, _) -> s *. 1000.0) runs);
          bp_cycles = Array.to_list (Array.map (fun (_, _, c) -> c) runs);
        }
        :: !passes
    done;
    List.rev !passes
  in
  let e2e_of passes =
    let mips =
      Array.of_list
        (List.map (fun p -> float_of_int p.bp_insns /. p.bp_secs /. 1e6) passes)
    in
    let runs = List.length passes * n in
    let secs = List.fold_left (fun a p -> a +. p.bp_secs) 0.0 passes in
    let cycles = List.fold_left (fun a p -> List.fold_left ( + ) a p.bp_cycles) 0 passes in
    {
      setup_s;
      app_mips = Arith.median mips;
      sim_vs_native =
        Arith.geomean
          (Array.map
             (function
               | Some (rc, nc) -> float_of_int rc /. float_of_int nc
               | None -> assert false)
             first);
      rps = float_of_int runs /. secs;
      lat_ms = Array.of_list (List.concat_map (fun p -> p.bp_lat) passes);
      sim_per_req = float_of_int cycles /. float_of_int runs;
    }
  in
  rec_.Spans.on <- false;
  let untraced = phase ~warm:false in
  pr "batch_cold: %d passes over %d programs\n%!" (List.length untraced) n;
  let e = e2e_of untraced in
  if not traced then (e2e_metrics e, t)
  else begin
    rec_.Spans.on <- true;
    native_insns := 0;
    let traced_passes = phase ~warm:true in
    rec_.Spans.on <- false;
    let et = e2e_of traced_passes in
    let path = spans_path "batch_cold" seed in
    Spans.write path (Spans.spans rec_);
    let sp = Spans.read path in
    pr "wrote %d spans to %s\n" (List.length sp) path;
    let mean = Spans.mean_ms sp in
    let sum name = Array.fold_left ( +. ) 0.0 (Spans.durations sp name) in
    let ms =
      [ metric "asm.assemble_ms" "ms" (mean "asm.assemble");
        metric "asm.image_load_ms" "ms" (mean "asm.image_load");
        metric "vm.machine_create_ms" "ms" (mean "vm.machine_create");
        metric "vm.native_mips" "Minsn/s"
          (float_of_int !native_insns /. (sum "vm.native_run" /. 1000.0) /. 1e6);
        metric "engine.create_ms" "ms" (mean "engine.create");
        metric "engine.run_cold_ms" "ms" (mean "engine.run_cold");
        metric "engine.run_warm_ms" "ms" (mean "engine.run_warm");
        metric "engine.translate_ms" "ms" (mean "engine.run_cold" -. mean "engine.run_warm");
        metric "engine.slowdown_vs_native" "ratio" (sum "engine.run_warm" /. sum "vm.native_run");
        metric "engine.reset_ms" "ms" (mean "engine.reset");
        metric "trace.overhead_frac" "fraction" ((e.app_mips /. et.app_mips) -. 1.0);
        (* no ladder here, so no rung is unsound *)
        metric "ladder.sound" "flag" 1.0 ]
      @ count_metrics counts
    in
    (ms, t)
  end

(* ------------------------------------------------------------------ *)
(* Serving workloads                                                  *)
(* ------------------------------------------------------------------ *)

(* One request of a schedule: key index, request-seed index, and (open
   loop) its due time in seconds from the start of the phase. *)
type req = { q_idx : int; q_key : int; q_sidx : int; q_due : float }

(* One answered request as the client saw it. *)
type served = {
  s_req : req;
  s_lat : float;  (** seconds: closed loop from send, open loop from due *)
  s_ok : bool;
  s_cycles : int;
  s_insns : int;  (** the native instruction count of the request *)
}

type serving = {
  keys : string array;
  images : Asm.Image.t array;
  inputs : int list array array;  (** per key, per seed index *)
  seeds : int array array;
  refs : native array array;
  opts_for : string -> Rio.Options.t;
  pool : Rio.Pool.t;
  lfd : Unix.file_descr;
  sock : string;
  srv : Rio.Server.stats Domain.t;
  cfd : Unix.file_descr;
}

let load_bundle () =
  match Rio.Bundle.load bundle_path with
  | Ok b -> b
  | Error e -> die "%s: %s" bundle_path (Rio.Bundle.error_to_string e)

let run_msg (sv : serving) (q : req) : Rio.Wire.client_msg =
  Rio.Wire.Run
    {
      c_id = q.q_idx;
      c_key = sv.keys.(q.q_key);
      c_seed = sv.seeds.(q.q_key).(q.q_sidx);
      c_input = sv.inputs.(q.q_key).(q.q_sidx);
      c_expect = Some sv.refs.(q.q_key).(q.q_sidx).n_out;
    }

(* wire byte counts of the traced socket replay *)
let req_bytes = ref 0
let resp_bytes = ref 0
let frames_sent = ref 0
let frames_recv = ref 0

let send (sv : serving) ?parent (q : req) =
  let payload =
    span ?parent ~req:q.q_idx "wire.encode" (fun _ -> Rio.Wire.encode_client_msg (run_msg sv q))
  in
  req_bytes := !req_bytes + 4 + String.length payload;
  incr frames_sent;
  Rio.Wire.write_frame sv.cfd payload

let decode ?parent payload =
  resp_bytes := !resp_bytes + 4 + String.length payload;
  incr frames_recv;
  span ?parent "wire.decode" (fun _ -> Rio.Wire.decode_response payload)

(** Judge one response against the native reference. *)
let judge (sv : serving) (t : tally) (q : req) (r : Rio.Wire.response) ~lat : served =
  let nref = sv.refs.(q.q_key).(q.q_sidx) in
  let ok = r.Rio.Wire.r_status = Rio.Wire.St_ok && r.Rio.Wire.r_output = nref.n_out in
  if not ok then begin
    match r.Rio.Wire.r_status with
    | Rio.Wire.St_ok | Rio.Wire.St_failed ->
        diverge t "%s seed %d: response %s, output %s native" sv.keys.(q.q_key)
          sv.seeds.(q.q_key).(q.q_sidx)
          (Rio.Wire.status_to_string r.Rio.Wire.r_status)
          (if r.Rio.Wire.r_output = nref.n_out then "equal to" else "differs from")
    | st ->
        t.failed <- t.failed + 1;
        pr "!! %s: %s\n%!" sv.keys.(q.q_key) (Rio.Wire.status_to_string st)
  end;
  { s_req = q; s_lat = lat; s_ok = ok; s_cycles = r.Rio.Wire.r_cycles; s_insns = nref.n_insns }

(** Closed loop over the socket: one request outstanding, through
    [sched] until it ends or [deadline] passes. *)
let closed_socket (sv : serving) (t : tally) ?(deadline = infinity) (sched : req array) :
    served list =
  let acc = ref [] in
  let rec go i =
    if i < Array.length sched && now () < deadline then begin
      let q = sched.(i) in
      t.attempted <- t.attempted + 1;
      let t0 = now () in
      let r =
        span ~req:q.q_idx "client.rtt" (fun id ->
            send sv ~parent:id q;
            decode ~parent:id (Rio.Wire.read_frame sv.cfd))
      in
      let lat = now () -. t0 in
      if r.Rio.Wire.r_id <> q.q_idx then die "response id %d for request %d" r.Rio.Wire.r_id q.q_idx;
      acc := judge sv t q r ~lat :: !acc;
      go (i + 1)
    end
  in
  go 0;
  List.rev !acc

(** Open loop over the socket: a single-threaded generator sends each
    request when due and reads responses as [select] reports them.
    Returns the answered requests and each send's lateness (s). *)
let open_socket (sv : serving) (t : tally) (sched : req array) : served list * float array =
  let n = Array.length sched in
  let conn = { Rio.Server.c_fd = sv.cfd; c_buf = Buffer.create 4096; c_cid = 0 } in
  let lag = Array.make n 0.0 in
  let acc = ref [] in
  let pending = ref 0 in
  let next = ref 0 in
  let t_start = now () in
  let last_progress = ref t_start in
  while !next < n || !pending > 0 do
    let t_now = now () -. t_start in
    while !next < n && sched.(!next).q_due <= t_now do
      let q = sched.(!next) in
      lag.(!next) <- now () -. t_start -. q.q_due;
      t.attempted <- t.attempted + 1;
      send sv q;
      incr pending;
      incr next
    done;
    let timeout =
      if !next < n then Float.max 0.0 (sched.(!next).q_due -. (now () -. t_start)) else 1.0
    in
    let readable, _, _ =
      try Unix.select [ sv.cfd ] [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if readable <> [] then begin
      if not (Rio.Server.pull conn) then die "server closed the connection";
      List.iter
        (fun payload ->
          let t_recv = now () in
          let r = decode payload in
          let q = sched.(r.Rio.Wire.r_id) in
          let lat = t_recv -. (t_start +. q.q_due) in
          ignore (Spans.add rec_ ~req:q.q_idx "client.rtt" (t_start +. q.q_due) t_recv);
          decr pending;
          last_progress := t_recv;
          acc := judge sv t q r ~lat :: !acc)
        (Rio.Server.frames conn)
    end;
    if now () -. !last_progress > 60.0 && !next >= n then die "no response for 60 s"
  done;
  (List.rev !acc, lag)

(** Build the serving stack: images, native references, a 1-worker pool
    with the bundle's options, an in-process server on a Unix socket in
    the working directory, one client connection, and a warm-up pass
    over every key. *)
let serve_up ~keys ~seed (t : tally) : serving =
  let bundle = load_bundle () in
  let wls =
    Array.of_list
      (List.map
         (fun k ->
           match Workloads.Suite.by_name k with
           | Some w -> W.serving_variant w
           | None -> die "unknown suite program %s" k)
         keys)
  in
  let keys = Array.of_list keys in
  let images =
    Array.mapi (fun i w -> span ~req:i "asm.assemble" (fun _ -> Asm.Assemble.assemble w.W.program)) wls
  in
  let r = Arith.rng (seed * 7919) in
  let seeds = Array.map (fun _ -> Array.init seeds_per_key (fun _ -> Arith.below r 1_000_000_000)) wls in
  let inputs =
    Array.mapi (fun k w -> Array.map (fun s -> W.request_input ~seed:s @ w.W.input) seeds.(k)) wls
  in
  let on = rec_.Spans.on in
  rec_.Spans.on <- false;
  (* each reference run drops a machine; collect it at once so the peak
     resident set does not depend on when the GC would have run *)
  let refs =
    Array.mapi
      (fun k img ->
        Array.map
          (fun input ->
            let r = run_native img input in
            Gc.full_major ();
            r)
          inputs.(k))
      images
  in
  rec_.Spans.on <- on;
  let opts_for = Rio.Bundle.opts_for bundle in
  let boots =
    Array.to_list
      (Array.mapi
         (fun k img ->
           ( keys.(k),
             {
               Rio.Pool.boot_machine =
                 (fun () ->
                   let m = Vm.Machine.create () in
                   Asm.Image.load_cold m img;
                   m);
               boot_entry = img.Asm.Image.entry;
               boot_stack_top = Asm.Image.default_stack_top;
               boot_restore = (fun m ~zeroed -> Asm.Image.restore m img ~zeroed);
               boot_opts = opts_for keys.(k);
               boot_client = (fun () -> Rio.Types.null_client);
               boot_image_digest = Asm.Image.digest img;
               boot_cache = None;
             } ))
         images)
  in
  let pool =
    Rio.Pool.create ~cfg:{ bundle.Rio.Bundle.b_pool with Rio.Options.domains = serve_domains } ~boots ()
  in
  let sock = Printf.sprintf ".hostbench-%d.sock" (Unix.getpid ()) in
  let addr = Rio.Server.Unix_addr sock in
  let lfd = Rio.Server.listen addr in
  let srv = Domain.spawn (fun () -> Rio.Server.run pool [ lfd ]) in
  let cfd = Rio.Server.connect addr in
  Unix.setsockopt_float cfd Unix.SO_RCVTIMEO 60.0;
  let sv = { keys; images; inputs; seeds; refs; opts_for; pool; lfd; sock; srv; cfd } in
  (* warm-up: every key once; failures here count *)
  rec_.Spans.on <- false;
  ignore
    (closed_socket sv t
       (Array.mapi (fun k _ -> { q_idx = k; q_key = k; q_sidx = 0; q_due = 0.0 }) keys));
  rec_.Spans.on <- on;
  sv

(** Ask the server to quit and join it; the pool stays up. *)
let server_quit (sv : serving) : Rio.Server.stats =
  Rio.Wire.send_msg sv.cfd Rio.Wire.Quit;
  Unix.close sv.cfd;
  let st = Domain.join sv.srv in
  Unix.close sv.lfd;
  if Sys.file_exists sv.sock then Sys.remove sv.sock;
  st

let pool_down (sv : serving) =
  ignore (Rio.Pool.drain sv.pool);
  Rio.Pool.shutdown sv.pool

(** The schedule of a run, from its seed.  Keys come in rounds, every
    key once per round in a seeded order, so each stretch of the run
    carries the whole mix; request seeds are drawn per request.  Closed
    loop: [count] requests, no due times.  Open loop: Poisson arrivals
    at [open_rate] over [seconds]. *)
let schedule ~seed ~nkeys ~open_loop ~seconds ~count : req array =
  let r = Arith.rng seed in
  let dues =
    if open_loop then Arith.poisson_schedule ~seed:(seed + 1) ~rate:open_rate ~duration:seconds
    else Array.make count 0.0
  in
  let round = ref [||] in
  Array.mapi
    (fun i due ->
      if i mod nkeys = 0 then round := Arith.shuffle r (Array.init nkeys Fun.id);
      { q_idx = i; q_key = !round.(i mod nkeys); q_sidx = Arith.below r seeds_per_key; q_due = due })
    dues

let serve_e2e (sv : serving) ~setup_s ~window (xs : served list) : e2e =
  let ok = List.filter (fun s -> s.s_ok) xs in
  let nok = List.length ok in
  if nok = 0 then die "no request succeeded";
  (* per key: RIO cycles over native cycles of the same requests *)
  let ratio k =
    let mine = List.filter (fun s -> s.s_req.q_key = k) ok in
    let sum f = List.fold_left (fun a s -> a + f s) 0 mine in
    float_of_int (sum (fun s -> s.s_cycles))
    /. float_of_int (sum (fun s -> sv.refs.(k).(s.s_req.q_sidx).n_cycles))
  in
  let present = List.sort_uniq compare (List.map (fun s -> s.s_req.q_key) ok) in
  let total f = List.fold_left (fun a s -> a + f s) 0 ok in
  {
    setup_s;
    app_mips = float_of_int (total (fun s -> s.s_insns)) /. window /. 1e6;
    sim_vs_native = Arith.geomean (Array.of_list (List.map ratio present));
    rps = float_of_int nok /. window;
    lat_ms = Array.of_list (List.map (fun s -> s.s_lat *. 1000.0) ok);
    sim_per_req = float_of_int (total (fun s -> s.s_cycles)) /. float_of_int nok;
  }

(** One socket phase over [sched] (closed loop: until [deadline] when
    given, else the whole schedule).  Returns answered requests, send
    lateness, and the timed window in seconds. *)
let socket_phase sv t ~open_loop ?deadline (sched : req array) =
  let t0 = now () in
  let xs, lag =
    if open_loop then open_socket sv t sched else (closed_socket sv t ?deadline sched, [||])
  in
  (xs, lag, now () -. t0)

(* ---------------- the ladder's lower rungs ---------------- *)

(** Replay [reqs] straight into the pool with the same loop discipline:
    closed loop through [submit]/[drain], open loop through
    [try_submit]/[take_results] at the recorded due times. *)
let pool_phase (sv : serving) (t : tally) ~open_loop (reqs : req array) =
  let mkreq (q : req) =
    {
      Rio.Pool.req_id = q.q_idx;
      req_key = sv.keys.(q.q_key);
      req_seed = sv.seeds.(q.q_key).(q.q_sidx);
      req_input = sv.inputs.(q.q_key).(q.q_sidx);
      req_expect = Some sv.refs.(q.q_key).(q.q_sidx).n_out;
    }
  in
  let record ~start (q : req) (r : Rio.Pool.result) t_obs =
    if not r.Rio.Pool.res_ok then diverge t "pool replay: %s failed" r.Rio.Pool.res_key;
    let id = Spans.add rec_ ~req:q.q_idx "pool.request" start t_obs in
    ignore (Spans.add rec_ ~parent:id ~req:q.q_idx "pool.service" (t_obs -. r.Rio.Pool.res_secs) t_obs)
  in
  let submit f q =
    match f sv.pool (mkreq q) with
    | Ok () -> ()
    | Error e -> die "pool replay: %s" (Rio.Pool.reject_to_string e)
  in
  if not open_loop then
    Array.iter
      (fun q ->
        let t0 = now () in
        submit Rio.Pool.submit q;
        match Rio.Pool.drain sv.pool with
        | [ r ] -> record ~start:t0 q r (now ())
        | _ -> die "pool replay: expected one result")
      reqs
  else begin
    let n = Array.length reqs in
    let t_start = now () in
    let next = ref 0 and pending = ref 0 in
    while !next < n || !pending > 0 do
      let t_now = now () -. t_start in
      while !next < n && reqs.(!next).q_due <= t_now do
        submit Rio.Pool.try_submit reqs.(!next);
        incr pending;
        incr next
      done;
      match Rio.Pool.take_results sv.pool with
      | [] -> Unix.sleepf 0.0002
      | rs ->
          let t_obs = now () in
          List.iter
            (fun (r : Rio.Pool.result) ->
              let q = reqs.(r.Rio.Pool.res_id) in
              decr pending;
              record ~start:(t_start +. q.q_due) q r t_obs)
            rs
    done
  end

(** Replay [reqs] back to back on engines the benchmark owns: boot each
    key (machine, cold image load, Engine.create), run it cold once and
    warm once on the same input, then time reset + warm run per
    request. *)
let engine_phase (sv : serving) (t : tally) (reqs : req array) =
  let engines =
    Array.mapi
      (fun k img ->
        let m = span ~req:k "vm.machine_create" (fun _ -> Vm.Machine.create ()) in
        span ~req:k "asm.image_load" (fun _ -> Asm.Image.load_cold m img);
        span ~req:k "engine.create" (fun _ -> Rio.Engine.create ~opts:(sv.opts_for sv.keys.(k)) m))
      sv.images
  in
  let run k sidx ~name ~req =
    let rt = engines.(k) and img = sv.images.(k) in
    let m = Rio.Engine.machine rt in
    if name <> "engine.run_cold" then
      span ~req "engine.reset" (fun _ ->
          Rio.Engine.reset_for_reuse rt ~restore:(fun m ~zeroed -> Asm.Image.restore m img ~zeroed));
    ignore (Vm.Machine.add_thread m ~entry:img.Asm.Image.entry ~stack_top:Asm.Image.default_stack_top);
    Vm.Machine.set_input m sv.inputs.(k).(sidx);
    let o = span ~req name (fun _ -> Rio.Engine.run rt) in
    if o.Rio.Engine.reason <> Rio.Engine.All_exited || Vm.Machine.output m <> sv.refs.(k).(sidx).n_out
    then diverge t "engine replay: %s differs from native" sv.keys.(k)
  in
  Array.iteri (fun k _ -> run k 0 ~name:"engine.run_cold" ~req:k) engines;
  Array.iteri (fun k _ -> run k 0 ~name:"engine.run_first_warm" ~req:k) engines;
  Array.iter (fun q -> run q.q_key q.q_sidx ~name:"engine.run_warm" ~req:q.q_idx) reqs

(* Pool counters read around the timed phase: completed, warm hits,
   batch hits, cold boots, shed, retries *)
let pool_counts (s : Rio.Pool.snapshot) =
  let open Rio.Pool in
  [| s.snap_completed; s.snap_warm_hits; s.snap_batch_hits; s.snap_cold_boots; s.snap_shed;
     s.snap_retries |]

let serve ~keys ~open_loop ~name ~seed ~seconds ~traced =
  let t = tally () in
  let nkeys = List.length keys in
  let reps = ref 0 in
  let setup_reps = if open_loop then open_setup_reps else serve_setup_reps in
  let sv, setup_s =
    timed_setup ~reps:setup_reps (fun () ->
        incr reps;
        let sv = serve_up ~keys ~seed t in
        (* only the last set-up's stack stays up *)
        if !reps < setup_reps then begin
          ignore (server_quit sv);
          pool_down sv
        end;
        sv)
  in
  rec_.Spans.on <- false;
  let tail_cap = if open_loop then None else Some closed_tail_cap in
  let snap0 = Rio.Pool.stats sv.pool in
  (* closed loop: a schedule longer than any run can use, cut at the
     deadline *)
  let sched = schedule ~seed ~nkeys ~open_loop ~seconds ~count:(int_of_float (seconds *. 2000.0)) in
  let xs, lag, window = socket_phase sv t ~open_loop ~deadline:(now () +. seconds) sched in
  let snap1 = Rio.Pool.stats sv.pool in
  let e = serve_e2e sv ~setup_s ~window xs in
  pr "%s: %d requests over %.2f s on %d keys\n%!" name (List.length xs) window nkeys;
  if not traced then begin
    ignore (server_quit sv);
    pool_down sv;
    (e2e_metrics ?tail_cap e, t)
  end
  else begin
    pr "untraced:\n";
    print_metrics (e2e_metrics ?tail_cap e);
    (* the ladder: the executed schedule again over the socket with
       spans on, then straight into the pool, then on engines the
       benchmark owns, then natively *)
    let executed = Array.sub sched 0 (List.length xs) in
    rec_.Spans.on <- true;
    req_bytes := 0;
    resp_bytes := 0;
    frames_sent := 0;
    frames_recv := 0;
    let xs_b, _, window_b = socket_phase sv t ~open_loop executed in
    let eb = serve_e2e sv ~setup_s ~window:window_b xs_b in
    let sst = server_quit sv in
    pool_phase sv t ~open_loop executed;
    pool_down sv;
    engine_phase sv t executed;
    let native_insns =
      Array.fold_left
        (fun acc q ->
          acc + (run_native ~req:q.q_idx sv.images.(q.q_key) sv.inputs.(q.q_key).(q.q_sidx)).n_insns)
        0 executed
    in
    rec_.Spans.on <- false;
    let path = spans_path name seed in
    Spans.write path (Spans.spans rec_);
    let sp = Spans.read path in
    pr "wrote %d spans to %s\n" (List.length sp) path;
    let mean = Spans.mean_ms sp in
    let sum name = Array.fold_left ( +. ) 0.0 (Spans.durations sp name) in
    let rungs =
      Spans.ladder sp
        [ ("socket", [ "client.rtt" ]); ("pool", [ "pool.request" ]);
          ("pool.service", [ "pool.service" ]); ("engine", [ "engine.reset"; "engine.run_warm" ]);
          ("native", [ "vm.native_run" ]) ]
    in
    List.iter
      (fun (d : Spans.rung_diff) ->
        pr "ladder %-12s - %-12s = %9.4f ms (stderr %.4f, %d pairs)%s\n" d.Spans.upper d.Spans.lower
          d.Spans.self_ms d.Spans.stderr_ms d.Spans.pairs
          (if d.Spans.sound then "" else "  UNSOUND"))
      rungs;
    let d i = (List.nth rungs i).Spans.self_ms in
    let translate =
      match Spans.ladder sp [ ("cold", [ "engine.run_cold" ]); ("warm", [ "engine.run_first_warm" ]) ] with
      | [ r ] -> r.Spans.self_ms
      | _ -> assert false
    in
    let client_self =
      Arith.mean
        (Array.of_list
           (List.filter_map
              (fun s -> if s.Spans.name = "client.rtt" then Some (Spans.self_ms sp s) else None)
              sp))
    in
    pr "client.rtt minus the client's wire codec: %.4f ms\n" client_self;
    let p0 = pool_counts snap0 and p1 = pool_counts snap1 in
    let pd i = p1.(i) - p0.(i) in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    let counts = counts () in
    add_counts counts ~runs:(List.length xs) (Some snap0.Rio.Pool.snap_stats) snap1.Rio.Pool.snap_stats;
    let lag_ms = Array.map (fun l -> l *. 1000.0) lag in
    let ms =
      [ metric "asm.assemble_ms" "ms" (mean "asm.assemble");
        metric "asm.image_load_ms" "ms" (mean "asm.image_load");
        metric "vm.machine_create_ms" "ms" (mean "vm.machine_create");
        metric "vm.native_mips" "Minsn/s"
          (float_of_int native_insns /. (sum "vm.native_run" /. 1000.0) /. 1e6);
        metric "engine.create_ms" "ms" (mean "engine.create");
        metric "engine.run_cold_ms" "ms" (mean "engine.run_cold");
        metric "engine.run_warm_ms" "ms" (mean "engine.run_warm");
        metric "engine.translate_ms" "ms" translate;
        metric "engine.slowdown_vs_native" "ratio" (sum "engine.run_warm" /. sum "vm.native_run");
        metric "engine.reset_ms" "ms" (mean "engine.reset");
        metric "pool.latency_ms" "ms" (mean "pool.request");
        metric "pool.service_ms" "ms" (mean "pool.service");
        metric "pool.queue_wait_ms" "ms" (d 1);
        metric "pool.self_ms" "ms" (d 2);
        metric "pool.warm_ratio" "ratio" (ratio (pd 1) (pd 0));
        metric "pool.batch_hit_ratio" "ratio" (ratio (pd 2) (pd 0));
        metric "pool.cold_boots" "count" (float_of_int (pd 3));
        metric "pool.shed" "count" (float_of_int (pd 4));
        metric "pool.retries" "count" (float_of_int (pd 5));
        metric "server.self_ms" "ms" (d 0);
        metric "server.responses" "count" (float_of_int sst.Rio.Server.sv_responses);
        metric "server.rejects" "count" (float_of_int sst.Rio.Server.sv_rejects);
        metric "server.dropped" "count" (float_of_int sst.Rio.Server.sv_dropped);
        metric "wire.encode_us" "us" (1000.0 *. mean "wire.encode");
        metric "wire.decode_us" "us" (1000.0 *. mean "wire.decode");
        metric "wire.request_bytes" "bytes" (ratio !req_bytes !frames_sent);
        metric "wire.response_bytes" "bytes" (ratio !resp_bytes !frames_recv);
        metric "loadgen.lag_tail_ms" "ms"
          (if Array.length lag_ms = 0 then 0.0 else (Arith.tail lag_ms).Arith.t_value);
        metric "trace.overhead_frac" "fraction"
          ((Arith.median eb.lat_ms /. Arith.median e.lat_ms) -. 1.0);
        metric "ladder.sound" "flag"
          (if List.for_all (fun (r : Spans.rung_diff) -> r.Spans.sound) rungs then 1.0 else 0.0) ]
      @ count_metrics counts
    in
    (ms, t)
  end

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let workloads = [ "batch_cold"; "serve_closed_short"; "serve_open_mixed" ]

(* every per-layer metric with its unit, as BENCHMARK.json declares
   them; a layer a workload bypasses did no work there and reads 0 *)
let per_layer =
  [ ("asm.assemble_ms", "ms"); ("asm.image_load_ms", "ms"); ("vm.machine_create_ms", "ms");
    ("vm.native_mips", "Minsn/s"); ("engine.create_ms", "ms"); ("engine.run_cold_ms", "ms");
    ("engine.run_warm_ms", "ms"); ("engine.translate_ms", "ms");
    ("engine.slowdown_vs_native", "ratio"); ("engine.reset_ms", "ms") ]
  @ List.map (fun (n, u, _) -> (n, u)) counters
  @ [ ("ibl.hit_ratio", "ratio"); ("pool.latency_ms", "ms"); ("pool.service_ms", "ms");
      ("pool.queue_wait_ms", "ms"); ("pool.self_ms", "ms"); ("pool.warm_ratio", "ratio");
      ("pool.batch_hit_ratio", "ratio"); ("pool.cold_boots", "count"); ("pool.shed", "count");
      ("pool.retries", "count"); ("server.self_ms", "ms"); ("server.responses", "count");
      ("server.rejects", "count"); ("server.dropped", "count"); ("wire.encode_us", "us");
      ("wire.decode_us", "us"); ("wire.request_bytes", "bytes"); ("wire.response_bytes", "bytes");
      ("loadgen.lag_tail_ms", "ms"); ("trace.overhead_frac", "fraction"); ("ladder.sound", "flag");
      ("error_rate", "fraction") ]

let usage () =
  die "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1"
    (String.concat "|" workloads)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl ->
        (match int_of_string_opt v with Some s when s >= 0 -> seed := s | _ -> usage ());
        parse tl
    | "--seconds" :: v :: tl ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse tl
    | "--trace" :: ("0" | "1" as v) :: tl -> trace := int_of_string v; parse tl
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) || !seed < 0 || !seconds <= 0.0 || !trace < 0 then usage ();
  if not (Sys.file_exists bundle_path) then die "%s not found: run from the repository root" bundle_path;
  let traced = !trace = 1 in
  rec_.Spans.on <- traced;
  let seed = !seed and seconds = !seconds in
  pr "hostbench %s seed %d, %.0f s%s\n%!" !workload seed seconds (if traced then ", traced" else "");
  let ms, t =
    match !workload with
    | "batch_cold" -> batch_cold ~seed ~seconds ~traced
    | "serve_closed_short" ->
        serve ~keys:short_keys ~open_loop:false ~name:"serve_closed_short" ~seed ~seconds ~traced
    | _ ->
        serve ~keys:Workloads.Suite.names ~open_loop:true ~name:"serve_open_mixed" ~seed ~seconds
          ~traced
  in
  let error_rate = float_of_int t.failed /. float_of_int (max 1 t.attempted) in
  let ms =
    if not traced then ms
    else begin
      let ms = ms @ [ metric "error_rate" "fraction" error_rate ] in
      let missing = List.filter (fun (n, _) -> not (List.exists (fun m -> m.m_name = n) ms)) per_layer in
      if missing <> [] then
        pr "bypassed by %s (read 0): %s\n" !workload (String.concat " " (List.map fst missing));
      List.map
        (fun (n, u) ->
          match List.find_opt (fun m -> m.m_name = n) ms with
          | Some m when m.m_unit = u -> m
          | Some m -> die "metric %s measured in %s, declared in %s" n m.m_unit u
          | None -> metric n u 0.0)
        per_layer
    end
  in
  pr "errors: %d of %d attempted (%d diverged); %.1f s in all\n" t.failed t.attempted t.diverged
    (now () -. t_main);
  print_metrics ms;
  print_result ~correct:(t.diverged = 0) ~attempted:t.attempted ~failed:t.failed ms;
  if t.diverged > 0 then exit 1
