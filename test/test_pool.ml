(** Warm-reuse and domain-parallel serving tests (DESIGN.md §6.5).

    The load-bearing property: serving a request on a {e warm} reused
    instance — code cache, fragment index, and traces carried over from
    arbitrary earlier requests — is observationally identical to
    serving it on a fresh instance: same output, same stop reason, same
    final registers, flags, pc, and application memory.  Simulated
    cycle counts are allowed to differ (that is the point of reuse:
    warm requests skip block building). *)

open Workloads

let serving_names = [ "perlbmk"; "gzip"; "parser"; "gcc" ]

let serving =
  List.map
    (fun n -> Workload.serving_variant (Option.get (Suite.by_name n)))
    serving_names

type site = {
  image : Asm.Image.t;
  workload : Workload.t;
}

let sites =
  List.map
    (fun w -> (w.Workload.name, { image = Asm.Assemble.assemble w.Workload.program; workload = w }))
    serving

let fresh_machine (s : site) =
  let m = Vm.Machine.create () in
  Asm.Image.load_cold m s.image;
  m

let input_for (s : site) seed =
  Workload.request_input ~seed @ s.workload.Workload.input

(* Serve one request on [rt] (already reset or freshly created): add
   the main thread, feed the input, run. *)
let serve_on (rt : Rio.Engine.t) (s : site) seed =
  let m = Rio.Engine.machine rt in
  ignore
    (Vm.Machine.add_thread m ~entry:s.image.Asm.Image.entry
       ~stack_top:Asm.Image.default_stack_top);
  Vm.Machine.set_input m (input_for s seed);
  Rio.Engine.run rt

(* One warm server: a table of long-lived instances keyed by workload,
   exactly as a pool worker keeps them. *)
let warm_server ~opts () =
  let tbl : (string, Rio.Engine.t) Hashtbl.t = Hashtbl.create 8 in
  fun (name, seed) ->
    let s = List.assoc name sites in
    let rt =
      match Hashtbl.find_opt tbl name with
      | Some rt ->
          Rio.Engine.reset_for_reuse rt ~restore:(fun m ~zeroed ->
              Asm.Image.restore m s.image ~zeroed);
          rt
      | None ->
          let rt = Rio.Engine.create ~opts (fresh_machine s) in
          Hashtbl.replace tbl name rt;
          rt
    in
    (serve_on rt s seed, rt)

let fresh_serve ~opts (name, seed) =
  let s = List.assoc name sites in
  let rt = Rio.Engine.create ~opts (fresh_machine s) in
  (serve_on rt s seed, rt)

(* Final observable state: output, stop reason, main-thread register
   file, and all application memory below the TLS area. *)
let state_equal (o1 : Rio.Engine.outcome) rt1 (o2 : Rio.Engine.outcome) rt2 =
  let m1 = Rio.Engine.machine rt1 and m2 = Rio.Engine.machine rt2 in
  let t1 = Vm.Machine.main_thread m1 and t2 = Vm.Machine.main_thread m2 in
  let problems = ref [] in
  let check name b = if not b then problems := name :: !problems in
  check "output" (Vm.Machine.output m1 = Vm.Machine.output m2);
  check "reason" (o1.Rio.Engine.reason = o2.Rio.Engine.reason);
  check "regs" (t1.Vm.Machine.regs = t2.Vm.Machine.regs);
  check "fregs" (t1.Vm.Machine.fregs = t2.Vm.Machine.fregs);
  check "eflags" (t1.Vm.Machine.eflags = t2.Vm.Machine.eflags);
  (* a thread that halts while executing inside the code cache leaves
     pc at the halt's cache address, which legitimately depends on
     cache layout (fresh RIO vs native differ the same way); pc is an
     observable only while it points at application code *)
  check "pc"
    (if
       Rio.Types.is_app_addr t1.Vm.Machine.pc
       && Rio.Types.is_app_addr t2.Vm.Machine.pc
     then t1.Vm.Machine.pc = t2.Vm.Machine.pc
     else true);
  check "app memory"
    (Vm.Memory.equal_range
       (Vm.Machine.mem m1) (Vm.Machine.mem m2)
       ~addr:0 ~len:Rio.Types.tls_base);
  !problems

let default_opts = { Rio.Options.default with max_cycles = max_int / 2 }

let pressure_opts =
  {
    default_opts with
    Rio.Options.cache_capacity =
      Some (2 * Rio.Options.min_cache_capacity Rio.Options.default);
    flush_policy = Rio.Options.Flush_fifo;
  }

(* ------------------------------------------------------------------ *)
(* qcheck: warm reused instance == fresh instance per request          *)
(* ------------------------------------------------------------------ *)

let gen_sequence =
  QCheck.(
    list_of_size (Gen.int_range 3 6)
      (pair (int_range 0 (List.length serving_names - 1)) (int_range 0 1000)))

let warm_equals_fresh ~name ~opts =
  QCheck.Test.make ~count:8 ~name gen_sequence (fun seq ->
      let seq =
        List.map (fun (k, seed) -> (List.nth serving_names k, seed)) seq
      in
      let warm = warm_server ~opts () in
      List.for_all
        (fun req ->
          let ow, rtw = warm req in
          let of_, rtf = fresh_serve ~opts req in
          match state_equal ow rtw of_ rtf with
          | [] -> true
          | ps ->
              QCheck.Test.fail_reportf "%s seed %d: %s differ" (fst req)
                (snd req)
                (String.concat ", " ps))
        seq)

(* ------------------------------------------------------------------ *)
(* Two-domain smoke: concurrent independent instances                  *)
(* ------------------------------------------------------------------ *)

(* Two domains running full RIO instances at once: any domain-unsafe
   global mutable state in lib/rio or lib/vm shows up here as
   corruption or divergence. *)
let two_domain_smoke same_workload () =
  let pick i =
    if same_workload then List.hd serving
    else List.nth serving (i mod List.length serving)
  in
  let run_one i =
    let w = pick i in
    let s = List.assoc w.Workload.name sites in
    let results = ref [] in
    for seed = 10 * i to (10 * i) + 2 do
      let o, rt = fresh_serve ~opts:default_opts (w.Workload.name, seed) in
      let native =
        Workload.run_native (Workload.with_input w (input_for s seed))
      in
      results :=
        ( seed,
          o.Rio.Engine.reason = Rio.Engine.All_exited,
          Vm.Machine.output (Rio.Engine.machine rt) = native.Workload.output )
        :: !results
    done;
    !results
  in
  let d1 = Domain.spawn (fun () -> run_one 0) in
  let d2 = Domain.spawn (fun () -> run_one 1) in
  let check who rs =
    List.iter
      (fun (seed, exited, matches) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d exited" who seed)
          true exited;
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d matches native" who seed)
          true matches)
      rs
  in
  check "domain0" (Domain.join d1);
  check "domain1" (Domain.join d2)

(* ------------------------------------------------------------------ *)
(* Pool integration                                                    *)
(* ------------------------------------------------------------------ *)

let pool_boots ~opts =
  List.map
    (fun (name, s) ->
      ( name,
        {
          Rio.Pool.boot_machine = (fun () -> fresh_machine s);
          boot_entry = s.image.Asm.Image.entry;
          boot_stack_top = Asm.Image.default_stack_top;
          boot_restore =
            (fun m ~zeroed -> Asm.Image.restore m s.image ~zeroed);
          boot_opts = opts;
          boot_client = (fun () -> Rio.Types.null_client);
          boot_image_digest = Asm.Image.digest s.image;
          boot_cache = None;
        } ))
    sites

let pool_requests n =
  List.init n (fun i ->
      let name = List.nth serving_names (i mod List.length serving_names) in
      let s = List.assoc name sites in
      let seed = 100 + i in
      let native =
        Workload.run_native (Workload.with_input s.workload (input_for s seed))
      in
      {
        Rio.Pool.req_id = i;
        req_key = name;
        req_seed = seed;
        req_input = input_for s seed;
        req_expect = Some native.Workload.output;
      })

(* Every submit in these tests is expected to be accepted. *)
let submit_ok pool r =
  match Rio.Pool.submit pool r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit rejected: %s" (Rio.Pool.reject_to_string e)

let pool_case () =
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2; max_inflight = 2 }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let n = 12 in
  List.iter (submit_ok pool) (pool_requests n);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Alcotest.(check int) "all completed" n (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d ok" r.Rio.Pool.res_key r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results;
  Alcotest.(check int) "warm + cold covers all"
    n
    (snap.Rio.Pool.snap_warm_hits + snap.Rio.Pool.snap_cold_boots);
  (* 12 requests over 4 workloads x 2 domains: at most 8 cold boots *)
  Alcotest.(check bool) "some requests served warm" true
    (snap.Rio.Pool.snap_warm_hits > 0);
  (* a second pass on the same pool: an idle domain may steal a request
     for a key it never served and cold-boot it, so "fully warm" is not
     guaranteed — but a request may run cold only on a (worker, key)
     pair that had no warm instance after the first pass *)
  let warm1 =
    List.map (fun (w, k, _) -> (w, k)) (Rio.Pool.warm_instances pool)
  in
  Rio.Pool.reset_counters pool;
  List.iter (submit_ok pool) (pool_requests n);
  let results2 = Rio.Pool.drain pool in
  let snap2 = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "pass2 %s seed %d ok" r.Rio.Pool.res_key
           r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results2;
  List.iter
    (fun r ->
      if not r.Rio.Pool.res_warm then
        Alcotest.(check bool)
          (Printf.sprintf "pass2 %s seed %d cold only on a new (worker, key)"
             r.Rio.Pool.res_key r.Rio.Pool.res_seed)
          false
          (List.mem (r.Rio.Pool.res_worker, r.Rio.Pool.res_key) warm1))
    results2;
  (* merged stats cover work from both domains *)
  Alcotest.(check bool) "merged stats saw blocks" true
    (snap2.Rio.Pool.snap_stats.Rio.Stats.blocks_built > 0)

let pool_faults_case () =
  let opts =
    {
      default_opts with
      Rio.Options.faults = Some { Rio.Options.default_faults with fi_seed = 3 };
      audit_period = 1;
    }
  in
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2 }
      ~boots:(pool_boots ~opts) ()
  in
  let n = 8 in
  List.iter (submit_ok pool) (pool_requests n);
  let results = Rio.Pool.drain pool in
  Rio.Pool.shutdown pool;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "faults %s seed %d ok" r.Rio.Pool.res_key
           r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results

(* ------------------------------------------------------------------ *)
(* Supervision, deadlines, retry ladder, quarantine (DESIGN.md §6.6)   *)
(* ------------------------------------------------------------------ *)

(* Submitting an unregistered key is an error result, not a raise that
   would kill the submitting caller or a worker domain; the pool keeps
   serving registered keys afterwards. *)
let unknown_key_case () =
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2 }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let bogus =
    { Rio.Pool.req_id = 0; req_key = "no-such-workload"; req_seed = 1;
      req_input = []; req_expect = None }
  in
  (match Rio.Pool.submit pool bogus with
   | Error (Rio.Pool.Unknown_key _) -> ()
   | Ok () -> Alcotest.fail "bogus key accepted"
   | Error e ->
       Alcotest.failf "wrong rejection: %s" (Rio.Pool.reject_to_string e));
  List.iter (submit_ok pool) (pool_requests 4);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  Alcotest.(check int) "good requests still served" 4 (List.length results);
  List.iter
    (fun r -> Alcotest.(check bool) "still ok" true r.Rio.Pool.res_ok)
    results;
  Alcotest.(check int) "rejection counted" 1
    snap.Rio.Pool.snap_rejected_unknown

(* The dedicated worker-kill test: crash-only chaos at period 1 kills
   the serving domain mid-request on every chaos-eligible attempt.  The
   supervisor must respawn each dead domain and requeue the request it
   died holding; every accepted request still produces an ok result. *)
let worker_kill_respawn_case () =
  let chaos =
    {
      Rio.Faultinject.ch_seed = 11;
      ch_period = 1;
      ch_crash = true;
      ch_stall = false;
      ch_poison = false;
      ch_hook_storm = false;
    }
  in
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2; retries = 1 }
      ~chaos
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let n = 6 in
  List.iter (submit_ok pool) (pool_requests n);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  Alcotest.(check int) "no request lost" n (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d recovered" r.Rio.Pool.res_key
           r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results;
  Alcotest.(check bool) "supervisor respawned workers" true
    (snap.Rio.Pool.snap_respawns >= 1);
  Alcotest.(check bool) "killed requests requeued" true
    (snap.Rio.Pool.snap_requeues >= 1)

(* The exception barrier: a raise while serving (here, a boot whose
   machine factory throws) becomes a Crashed result, not a dead worker;
   the pool keeps serving other keys on the same domains. *)
let crash_barrier_case () =
  let broken =
    ( "broken",
      {
        Rio.Pool.boot_machine = (fun () -> failwith "boot exploded");
        boot_entry = 0;
        boot_stack_top = 0;
        boot_restore = (fun _ ~zeroed -> zeroed);
        boot_opts = default_opts;
        boot_client = (fun () -> Rio.Types.null_client);
        boot_image_digest = 0;
        boot_cache = None;
      } )
  in
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2; retries = 0 }
      ~boots:(broken :: pool_boots ~opts:default_opts) ()
  in
  submit_ok pool
    { Rio.Pool.req_id = 0; req_key = "broken"; req_seed = 1; req_input = [];
      req_expect = None };
  List.iter (submit_ok pool) (pool_requests 4);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  Alcotest.(check int) "all requests completed" 5 (List.length results);
  let crashed, rest =
    List.partition (fun r -> r.Rio.Pool.res_key = "broken") results
  in
  (match crashed with
   | [ r ] ->
       Alcotest.(check bool) "crashed result" true
         (match r.Rio.Pool.res_reason with
          | Rio.Engine.Crashed _ -> true
          | _ -> false);
       Alcotest.(check bool) "crashed not ok" false r.Rio.Pool.res_ok
   | rs -> Alcotest.failf "expected 1 broken result, got %d" (List.length rs));
  List.iter
    (fun r -> Alcotest.(check bool) "others still ok" true r.Rio.Pool.res_ok)
    rest;
  Alcotest.(check bool) "crash counted" true (snap.Rio.Pool.snap_crashes >= 1);
  Alcotest.(check int) "no respawn needed" 0 snap.Rio.Pool.snap_respawns

(* A cycle-budget deadline preempts a request at a safe point and
   reports Deadline_exceeded as the final reason once the ladder is
   exhausted. *)
let deadline_case () =
  let pool =
    Rio.Pool.create
      ~cfg:
        {
          Rio.Options.default_pool with
          domains = 1;
          retries = 0;
          deadline_cycles = Some 1_000;
        }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  List.iter (submit_ok pool) (pool_requests 1);
  let results = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  (match results with
   | [ r ] ->
       Alcotest.(check bool) "preempted" true
         (r.Rio.Pool.res_reason = Rio.Engine.Deadline_exceeded);
       Alcotest.(check bool) "not ok" false r.Rio.Pool.res_ok
   | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs));
  Alcotest.(check bool) "deadline counted" true
    (snap.Rio.Pool.snap_deadline_hits >= 1)

(* Circuit breaker lifecycle, deterministically on one domain: two
   consecutive final failures (wrong expectation) open the key's
   breaker; the next submit is admitted as the probe; its success
   closes the breaker. *)
let quarantine_case () =
  let pool =
    Rio.Pool.create
      ~cfg:
        {
          Rio.Options.default_pool with
          domains = 1;
          retries = 0;
          quarantine_threshold = 2;
        }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let good = List.hd (pool_requests 1) in
  let bad i = { good with Rio.Pool.req_seed = 700 + i; req_expect = Some [ -1 ] } in
  List.iter (submit_ok pool) [ bad 0; bad 1 ];
  let failed = Rio.Pool.drain pool in
  Alcotest.(check int) "both failures completed" 2 (List.length failed);
  (* breaker now open: the next submit must be admitted as the probe *)
  submit_ok pool good;
  let probed = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  (* closed again: a further request is served normally *)
  submit_ok pool good;
  let after = Rio.Pool.drain pool in
  let snap2 = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  (match probed with
   | [ r ] -> Alcotest.(check bool) "probe succeeded" true r.Rio.Pool.res_ok
   | rs -> Alcotest.failf "expected 1 probe result, got %d" (List.length rs));
  Alcotest.(check int) "breaker opened once" 1
    snap.Rio.Pool.snap_quarantine_opens;
  Alcotest.(check int) "probe admitted" 1 snap.Rio.Pool.snap_probes;
  Alcotest.(check int) "breaker closed" 1 snap.Rio.Pool.snap_quarantine_closes;
  Alcotest.(check int) "no key open at the end" 0
    snap2.Rio.Pool.snap_quarantined_now;
  (match after with
   | [ r ] -> Alcotest.(check bool) "post-close serve ok" true r.Rio.Pool.res_ok
   | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs))

(* drain_and_reload: quiesce, drop warm instances, resume; requests
   accepted before and after the reload are all served. *)
let reload_case () =
  let pool =
    Rio.Pool.create
      ~cfg:{ Rio.Options.default_pool with domains = 2 }
      ~boots:(pool_boots ~opts:default_opts) ()
  in
  let n = 8 in
  List.iter (submit_ok pool) (pool_requests n);
  let before = Rio.Pool.drain pool in
  Rio.Pool.drain_and_reload pool;
  List.iter (submit_ok pool) (pool_requests n);
  let after = Rio.Pool.drain pool in
  let snap = Rio.Pool.stats pool in
  Rio.Pool.shutdown pool;
  Alcotest.(check int) "served before reload" n (List.length before);
  Alcotest.(check int) "served after reload" n (List.length after);
  List.iter
    (fun r -> Alcotest.(check bool) "ok across reload" true r.Rio.Pool.res_ok)
    (before @ after);
  Alcotest.(check int) "reload counted" 1 snap.Rio.Pool.snap_reloads

(* qcheck: a client hook that raises inside a pooled request (forced
   via hook-raise fault injection at period 1) never hangs drain and
   never loses a result, across warm and cold instances. *)
let hook_raise_never_hangs =
  let hook_opts =
    {
      default_opts with
      Rio.Options.faults =
        Some
          {
            Rio.Options.default_faults with
            fi_seed = 5;
            fi_period = 1;
            fi_corrupt = false;
            fi_links = false;
            fi_signals = false;
          };
      audit_period = 1;
    }
  in
  let hooked_boots =
    List.map
      (fun (name, b) ->
        ( name,
          {
            b with
            Rio.Pool.boot_client =
              (fun () ->
                { Rio.Types.null_client with
                  name = "raiser-target";
                  basic_block = Some (fun _ ~tag:_ _ -> ());
                });
          } ))
      (pool_boots ~opts:hook_opts)
  in
  QCheck.Test.make ~count:4 ~name:"hook raise never hangs or loses results"
    gen_sequence (fun seq ->
      let reqs =
        List.map
          (fun (k, seed) ->
            let name = List.nth serving_names (k mod List.length serving_names) in
            let s = List.assoc name sites in
            let seed = seed mod 50 in
            let native =
              Workload.run_native
                (Workload.with_input s.workload (input_for s seed))
            in
            {
              Rio.Pool.req_id = k;
              req_key = name;
              req_seed = seed;
              req_input = input_for s seed;
              req_expect = Some native.Workload.output;
            })
          seq
      in
      let pool =
        Rio.Pool.create
          ~cfg:{ Rio.Options.default_pool with domains = 2 }
          ~boots:hooked_boots ()
      in
      List.iter (submit_ok pool) reqs;
      (* warm pass over the same keys: hooks raise on reused instances too *)
      List.iter (submit_ok pool) reqs;
      let results = Rio.Pool.drain pool in
      Rio.Pool.shutdown pool;
      if List.length results <> 2 * List.length reqs then
        QCheck.Test.fail_reportf "lost results: %d of %d"
          (List.length results)
          (2 * List.length reqs)
      else
        List.for_all
          (fun r ->
            r.Rio.Pool.res_ok
            || QCheck.Test.fail_reportf "%s seed %d not ok (%s)"
                 r.Rio.Pool.res_key r.Rio.Pool.res_seed
                 (Rio.Engine.stop_reason_to_string r.Rio.Pool.res_reason))
          results)

(* ------------------------------------------------------------------ *)
(* Bundle overrides reach the booted instances                         *)
(* ------------------------------------------------------------------ *)

(* A tuned bundle's per-workload opt-level override must land in the
   Options of the instance the pool actually boots for that key — not
   just in the boot table.  Serve every key, then audit the fleet's
   live instances against the bundle's projection. *)
let bundle_override_case () =
  let bundle =
    {
      Rio.Bundle.b_opts = { default_opts with Rio.Options.opt_level = 2 };
      b_pool = { Rio.Options.default_pool with domains = 2 };
      b_overrides = [ ("gcc", 0); ("gzip", 1) ];
      b_provenance = Rio.Bundle.default_provenance;
    }
  in
  (match Rio.Bundle.validate bundle with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bundle: %s" (Rio.Bundle.error_to_string e));
  let boots =
    List.map
      (fun (name, boot) ->
        (name, { boot with Rio.Pool.boot_opts = Rio.Bundle.opts_for bundle name }))
      (pool_boots ~opts:default_opts)
  in
  let pool = Rio.Pool.create ~cfg:bundle.Rio.Bundle.b_pool ~boots () in
  List.iter (submit_ok pool) (pool_requests 8);
  let results = Rio.Pool.drain pool in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d ok" r.Rio.Pool.res_key r.Rio.Pool.res_seed)
        true r.Rio.Pool.res_ok)
    results;
  let instances = Rio.Pool.warm_instances pool in
  Alcotest.(check bool) "fleet has warm instances" true (instances <> []);
  let audited = ref 0 in
  List.iter
    (fun (worker, key, eng) ->
      let got = (Rio.Engine.options eng).Rio.Options.opt_level in
      let want = (Rio.Bundle.opts_for bundle key).Rio.Options.opt_level in
      incr audited;
      Alcotest.(check int)
        (Printf.sprintf "worker %d key %s opt level" worker key)
        want got)
    instances;
  (* both overridden keys were exercised, not just the base level *)
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "%s booted somewhere" key)
        true
        (List.exists (fun (_, k, _) -> k = key) instances))
    [ "gcc"; "gzip"; "perlbmk" ];
  Rio.Pool.shutdown pool

let () =
  Alcotest.run "pool"
    [
      ( "warm reuse == fresh",
        [
          QCheck_alcotest.to_alcotest
            (warm_equals_fresh ~name:"default options" ~opts:default_opts);
          QCheck_alcotest.to_alcotest
            (warm_equals_fresh ~name:"FIFO cache pressure"
               ~opts:pressure_opts);
        ] );
      ( "two-domain smoke",
        [
          Alcotest.test_case "same workload concurrently" `Slow
            (two_domain_smoke true);
          Alcotest.test_case "different workloads concurrently" `Slow
            (two_domain_smoke false);
        ] );
      ( "pool",
        [
          Alcotest.test_case "warm serving with backpressure" `Slow pool_case;
          Alcotest.test_case "serving under fault injection" `Slow
            pool_faults_case;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "unknown key rejected, pool survives" `Quick
            unknown_key_case;
          Alcotest.test_case "worker killed mid-request is respawned" `Slow
            worker_kill_respawn_case;
          Alcotest.test_case "exception barrier yields Crashed result" `Quick
            crash_barrier_case;
          Alcotest.test_case "cycle deadline preempts" `Quick deadline_case;
          Alcotest.test_case "bundle override reaches instances" `Slow
            bundle_override_case;
          Alcotest.test_case "quarantine opens, probes, closes" `Slow
            quarantine_case;
          Alcotest.test_case "drain_and_reload keeps serving" `Slow
            reload_case;
          QCheck_alcotest.to_alcotest hook_raise_never_hangs;
        ] );
    ]
