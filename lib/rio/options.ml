(** Runtime configuration.

    The first four flags select the systems of Table 1: pure emulation,
    basic-block cache only, + direct links, + indirect-branch in-cache
    lookup, + traces.  The cost block holds the modelled runtime
    overheads (see DESIGN.md §2 for the substitution rationale). *)

type costs = {
  context_switch : int;
      (** cycles to leave the cache, restore runtime state, dispatch,
          and re-enter the cache *)
  ibl_lookup : int;
      (** in-cache indirect-branch hashtable lookup (includes the
          mispredicted indirect jump at its end) *)
  stub_exec : int;       (** executing an exit stub's save/record path *)
  bb_build_base : int;   (** fixed cost of building a basic block *)
  bb_build_per_insn : int;
  trace_build_per_insn : int;  (** full decode + analysis + re-encode *)
  clean_call : int;      (** context save/restore around a clean call *)
  replace_fragment : int;
  audit_per_fragment : int;
      (** modelled cost of auditing one fragment (checksum walk +
          link-state validation) at a dispatch safe point *)
  evict_fragment : int;
      (** unlinking and reclaiming one fragment under incremental
          (FIFO) capacity eviction *)
  opt_per_insn_pass : int;
      (** running one optimizer pass over one trace instruction (each
          pass is a linear scan, far cheaper than the full decode +
          re-encode already covered by [trace_build_per_insn]) *)
}

let default_costs =
  {
    context_switch = 150;
    ibl_lookup = 45;
    stub_exec = 10;
    bb_build_base = 250;
    bb_build_per_insn = 60;
    trace_build_per_insn = 150;
    clean_call = 60;
    replace_fragment = 500;
    audit_per_fragment = 20;
    evict_fragment = 40;
    opt_per_insn_pass = 6;
  }

(* ------------------------------------------------------------------ *)
(* Trace optimization (DESIGN.md §6.4)                                *)
(* ------------------------------------------------------------------ *)

(** The in-core optimizer's passes, runnable individually (see
    {!Opt}).  [opt_level] selects a canonical set; [opt_enable] /
    [opt_disable] fine-tune it. *)
type opt_pass =
  | Copy_prop       (** copy + constant propagation *)
  | Strength        (** inc→add / dec→sub (architecture-gated) *)
  | Load_removal    (** redundant load removal *)
  | Dead_store      (** dead stores + dead register/flag writes *)
  | Exit_peephole   (** exit-check simplification *)
  | Flag_elide      (** dead flag-save/restore bracket elision *)

let all_passes =
  [ Copy_prop; Strength; Load_removal; Dead_store; Exit_peephole; Flag_elide ]

let pass_name = function
  | Copy_prop -> "copyprop"
  | Strength -> "strength"
  | Load_removal -> "loadrem"
  | Dead_store -> "deadstore"
  | Exit_peephole -> "peephole"
  | Flag_elide -> "flagelide"

let pass_of_name n =
  List.find_opt (fun p -> pass_name p = n) all_passes

(** Canonical pass set per level: [-O1] runs the flag-safe rewrites,
    [-O2] adds the passes backed by the register/memory liveness
    analysis.  [-O3] runs the same classic passes; what it adds is the
    speculative machinery in {!Trace}/{!Opt} (profile-guided guard
    insertion and mid-trace deoptimization, DESIGN.md §6.7), which is
    not a pass over the IL but a change to how traces are built. *)
let passes_at_level = function
  | 0 -> []
  | 1 -> [ Copy_prop; Strength; Flag_elide ]
  | _ -> [ Copy_prop; Strength; Load_removal; Dead_store; Exit_peephole; Flag_elide ]

(** Deterministic fault injection (S34).  The injector fires at
    dispatcher safe points, roughly once every [fi_period] dispatches,
    choosing uniformly among the enabled fault kinds.  Everything is
    driven by a private LCG seeded with [fi_seed], so a given
    (seed, workload, options) triple replays exactly. *)
type fault_opts = {
  fi_seed : int;
  fi_period : int;     (** mean dispatches between injections (>= 1) *)
  fi_corrupt : bool;   (** flip a byte inside a live fragment *)
  fi_links : bool;     (** re-patch a linked exit branch to a bogus target *)
  fi_hooks : bool;     (** make the next client hook invocation raise *)
  fi_signals : bool;   (** queue a signal whose handler is outside app space *)
}

let default_faults =
  {
    fi_seed = 1;
    fi_period = 40;
    fi_corrupt = true;
    fi_links = true;
    fi_hooks = true;
    fi_signals = true;
  }

(* ------------------------------------------------------------------ *)
(* Serving-pool supervision (DESIGN.md §6.6)                          *)
(* ------------------------------------------------------------------ *)

(** Configuration of the supervised serving pool ({!Pool}): sizing,
    per-request deadlines, the bounded retry ladder, and the
    per-workload-key quarantine circuit breaker. *)
type pool_opts = {
  domains : int;           (** worker domains (>= 1) *)
  max_inflight : int;      (** submitted-but-incomplete cap (>= 1) *)
  queue_capacity : int;    (** initial per-worker deque capacity (>= 1) *)
  affinity : bool;         (** shard by key hash instead of round-robin *)
  retries : int;
      (** retry-ladder depth: failed requests are retried up to this
          many times (warm → cold → migrate-cold), 0 disables retries *)
  quarantine_threshold : int;
      (** consecutive final failures of one workload key before its
          circuit breaker opens and new submits are rejected (>= 1) *)
  deadline_cycles : int option;
      (** per-request simulated-cycle budget; the watchdog preempts the
          engine at the next fragment boundary once exceeded *)
  deadline_secs : float option;
      (** per-request host wall-clock bound, same preemption path *)
  (* --- serving front-end (DESIGN.md §6.10) --- *)
  accept_queue : int;
      (** admission bound: total requests admitted but not yet finished
          before {!Pool.try_submit} sheds with [Overloaded] (>= 1).
          [max_inflight] still bounds the blocking {!Pool.submit} path *)
  batch_window : int;
      (** dequeue-time batching: how deep into its own deque a worker
          scans for a request matching the key it served last (keeping
          the warm instance hot); 0 disables reordering *)
  prewarm : bool;
      (** build every (worker, workload) instance at pool boot, before
          any request is accepted, so steady-state traffic sees zero
          cold boots *)
  min_domains : int option;
      (** enable the queue-depth autoscaler: workers beyond this floor
          park when load drops and wake as depth grows, between
          [min_domains] and [domains].  [None] keeps every domain hot
          (no scaling) *)
  scale_up_depth : int;
      (** queued requests per live worker that must be sustained for
          [scale_hysteresis] decisions before a parked worker wakes *)
  scale_down_depth : int;
      (** queued requests per live worker below which a sustained run
          of decisions parks the youngest live worker; must be below
          [scale_up_depth] *)
  scale_hysteresis : int;
      (** consecutive same-direction decisions required before the
          autoscaler acts (>= 1); damps flapping on bursty arrivals *)
}

let default_pool =
  {
    domains = 2;
    max_inflight = 64;
    queue_capacity = 16;
    affinity = false;
    retries = 3;
    quarantine_threshold = 3;
    deadline_cycles = None;
    deadline_secs = None;
    accept_queue = 128;
    batch_window = 8;
    prewarm = false;
    min_domains = None;
    scale_up_depth = 4;
    scale_down_depth = 1;
    scale_hysteresis = 3;
  }

(** What to do when a bounded code cache fills up (DESIGN.md §6.3). *)
type flush_policy =
  | Flush_fifo
      (** incremental reclamation: evict the oldest unpinned fragments,
          one at a time, until the new fragment fits.  The capacity is
          a hard bound split between a basic-block and a trace region *)
  | Flush_full
      (** Dynamo's flush-the-world: the capacity is a soft bound over a
          bump allocator; crossing it requests a whole-cache flush at
          the next globally safe point (the pre-refactor behaviour) *)

let flush_policy_name = function Flush_fifo -> "fifo" | Flush_full -> "full"

let flush_policy_of_name = function
  | "fifo" -> Some Flush_fifo
  | "full" -> Some Flush_full
  | _ -> None

type t = {
  emulate : bool;         (** pure emulation: no cache at all (Table 1 row 1) *)
  link_direct : bool;     (** link direct branches between fragments *)
  link_indirect : bool;   (** in-cache indirect-branch lookup (vs. full context switch) *)
  enable_traces : bool;
  trace_threshold : int;  (** trace-head executions before trace creation *)
  max_trace_blocks : int; (** cap on constituent blocks per trace *)
  max_bb_insns : int;     (** basic blocks stop after this many instructions *)
  cache_capacity : int option;
      (** bound on total code-cache bytes; [None] = unlimited (the
          paper's experimental setup).  How overflow is handled is
          [flush_policy]'s choice *)
  flush_policy : flush_policy;
      (** capacity response; irrelevant when [cache_capacity] is
          [None] *)
  cache_compaction : bool;
      (** under the FIFO policy, slide live fragments down over free
          holes (relocation replay) when an allocation fails from
          fragmentation rather than capacity, and as a last resort
          before giving up — FIFO eviction's worst case (free space
          sharded around pinned fragments) becomes a compaction instead
          of a dropped trace or a full flush *)
  quantum : int;          (** scheduler quantum, cycles *)
  always_save_flags : bool;
      (** disable the Level-2 eflags liveness analysis: every inline
          target check conservatively saves and restores the
          application flags (ablation of §3.1's motivation) *)
  sideline : bool;
      (** perform trace optimization and fragment replacement on a
          simulated spare processor: their cost is tracked but not
          charged to the application thread (paper §3.4's "sideline
          optimization" direction) *)
  opt_level : int;
      (** trace-optimization level 0–3 ([-O]); 0 disables the in-core
          optimizer entirely so seed cycle counts are unchanged.  Level
          3 runs the same classic passes as 2 and additionally builds
          speculative traces: profile-guided guard insertion with
          mid-trace deoptimization (DESIGN.md §6.7) *)
  opt_enable : opt_pass list;
      (** individual passes added on top of [opt_level]'s set (requires
          [opt_level >= 1]) *)
  opt_disable : opt_pass list;
      (** individual passes removed from [opt_level]'s set *)
  reopt_threshold : int option;
      (** re-optimize a trace through decode/replace once it has been
          entered this many times ([None] = use the built-in deferral
          threshold; requires [opt_level >= 1] and a positive
          threshold) *)
  spec_threshold : int;
      (** minimum successor-profile samples at an exit site before the
          trace builder speculates on it (dominant-target inlining,
          exit-direction gating); only consulted at [opt_level >= 3] *)
  spec_max_violations : int;
      (** guard violations tolerated per guard before the trace is
          re-optimized without that assumption (the speculative exit is
          cut); only consulted at [opt_level >= 3] *)
  max_cycles : int;       (** safety stop *)
  faults : fault_opts option;
      (** deterministic fault injection; [None] = injector off *)
  audit_period : int;
      (** run the cache auditor every N context switches (and
          immediately after every injected fault); 0 = never *)
  client_fail_limit : int;
      (** client-hook failures tolerated before the client is
          quarantined (hooks skipped for the rest of the run) *)
  costs : costs;
}

let default =
  {
    emulate = false;
    link_direct = true;
    link_indirect = true;
    enable_traces = true;
    trace_threshold = 50;
    max_trace_blocks = 16;
    max_bb_insns = 128;
    cache_capacity = None;
    flush_policy = Flush_fifo;
    cache_compaction = true;
    quantum = 100_000;
    always_save_flags = false;
    sideline = false;
    opt_level = 0;
    opt_enable = [];
    opt_disable = [];
    reopt_threshold = None;
    spec_threshold = 8;
    spec_max_violations = 3;
    max_cycles = 2_000_000_000;
    faults = None;
    audit_period = 0;
    client_fail_limit = 3;
    costs = default_costs;
  }

(* ------------------------------------------------------------------ *)
(* Knob registry (DESIGN.md §6.9)                                     *)
(* ------------------------------------------------------------------ *)

(** Single-field range of a numeric knob (for an option, of its
    payload).  Cross-field rules stay in {!validate} and
    {!validate_pool}. *)
type range = At_least of int | Between of int * int | Positive

(** A knob's command-line flag: [flags] are the names without dashes
    (one letter = short flag), [negate] makes a boolean flag set the
    knob to [false] ([--no-traces]). *)
type cli = { flags : string list; docv : string; doc : string; negate : bool }

(** The value type of a knob, which fixes its JSON form and its flag. *)
type _ kind =
  | K_bool : bool kind
  | K_int : int kind
  | K_int_opt : int option kind  (** JSON [null] = [None] *)
  | K_float_opt : float option kind
  | K_policy : flush_policy kind
  | K_passes : opt_pass list kind
  | K_record : 'a knob list -> 'a kind  (** nested object *)
  | K_record_opt : 'a knob list * 'a -> 'a option kind
      (** nested object or [null]; absent fields take the given default *)

(** One settable field: JSON name, typed accessors, range, flag. *)
and 'r knob =
  | Knob : {
      name : string;
      kind : 'a kind;
      get : 'r -> 'a;
      set : 'r -> 'a -> 'r;
      range : range option;
      cli : cli option;
    }
      -> 'r knob

let knob ?range ?cli name kind get set = Knob { name; kind; get; set; range; cli }
let flag ?(negate = false) ?(docv = "") flags doc = { flags; docv; doc; negate }

(* Registry order is the printed field order of bundles and digests. *)

let cost_knobs : costs knob list =
  let c name get set = knob name K_int get set in
  [
    c "context_switch" (fun c -> c.context_switch) (fun c v -> { c with context_switch = v });
    c "ibl_lookup" (fun c -> c.ibl_lookup) (fun c v -> { c with ibl_lookup = v });
    c "stub_exec" (fun c -> c.stub_exec) (fun c v -> { c with stub_exec = v });
    c "bb_build_base" (fun c -> c.bb_build_base) (fun c v -> { c with bb_build_base = v });
    c "bb_build_per_insn" (fun c -> c.bb_build_per_insn)
      (fun c v -> { c with bb_build_per_insn = v });
    c "trace_build_per_insn" (fun c -> c.trace_build_per_insn)
      (fun c v -> { c with trace_build_per_insn = v });
    c "clean_call" (fun c -> c.clean_call) (fun c v -> { c with clean_call = v });
    c "replace_fragment" (fun c -> c.replace_fragment)
      (fun c v -> { c with replace_fragment = v });
    c "audit_per_fragment" (fun c -> c.audit_per_fragment)
      (fun c v -> { c with audit_per_fragment = v });
    c "evict_fragment" (fun c -> c.evict_fragment) (fun c v -> { c with evict_fragment = v });
    c "opt_per_insn_pass" (fun c -> c.opt_per_insn_pass)
      (fun c v -> { c with opt_per_insn_pass = v });
  ]

let fault_knobs : fault_opts knob list =
  [
    knob "seed" K_int (fun f -> f.fi_seed) (fun f v -> { f with fi_seed = v });
    knob "period" K_int ~range:(At_least 1) (fun f -> f.fi_period)
      (fun f v -> { f with fi_period = v });
    knob "corrupt" K_bool (fun f -> f.fi_corrupt) (fun f v -> { f with fi_corrupt = v });
    knob "links" K_bool (fun f -> f.fi_links) (fun f v -> { f with fi_links = v });
    knob "hooks" K_bool (fun f -> f.fi_hooks) (fun f v -> { f with fi_hooks = v });
    knob "signals" K_bool (fun f -> f.fi_signals) (fun f v -> { f with fi_signals = v });
  ]

let engine_knobs : t knob list =
  [
    knob "emulate" K_bool (fun o -> o.emulate) (fun o v -> { o with emulate = v });
    knob "link_direct" K_bool
      ~cli:(flag ~negate:true [ "no-link-direct" ] "Disable direct linking.")
      (fun o -> o.link_direct) (fun o v -> { o with link_direct = v });
    knob "link_indirect" K_bool
      ~cli:(flag ~negate:true [ "no-link-indirect" ]
              "Disable the in-cache indirect lookup.")
      (fun o -> o.link_indirect) (fun o v -> { o with link_indirect = v });
    knob "enable_traces" K_bool
      ~cli:(flag ~negate:true [ "no-traces" ] "Disable trace creation.")
      (fun o -> o.enable_traces) (fun o v -> { o with enable_traces = v });
    knob "trace_threshold" K_int ~range:(At_least 1)
      ~cli:(flag [ "trace-threshold" ] ~docv:"N" "Trace-head hotness threshold.")
      (fun o -> o.trace_threshold) (fun o v -> { o with trace_threshold = v });
    knob "max_trace_blocks" K_int ~range:(At_least 1)
      (fun o -> o.max_trace_blocks) (fun o v -> { o with max_trace_blocks = v });
    knob "max_bb_insns" K_int ~range:(At_least 1)
      (fun o -> o.max_bb_insns) (fun o v -> { o with max_bb_insns = v });
    knob "cache_capacity" K_int_opt ~range:Positive
      ~cli:(flag [ "cache-capacity" ] ~docv:"BYTES"
              "Bound the code cache; see --flush-policy for what happens on \
               overflow.")
      (fun o -> o.cache_capacity) (fun o v -> { o with cache_capacity = v });
    knob "flush_policy" K_policy
      ~cli:(flag [ "flush-policy" ] ~docv:"POLICY"
              "Capacity policy for a bounded cache: $(b,fifo) evicts the \
               oldest fragments incrementally; $(b,full) flushes the whole \
               cache on overflow.")
      (fun o -> o.flush_policy) (fun o v -> { o with flush_policy = v });
    knob "cache_compaction" K_bool
      (fun o -> o.cache_compaction) (fun o v -> { o with cache_compaction = v });
    knob "quantum" K_int ~range:(At_least 1)
      (fun o -> o.quantum) (fun o v -> { o with quantum = v });
    knob "always_save_flags" K_bool
      (fun o -> o.always_save_flags) (fun o v -> { o with always_save_flags = v });
    knob "sideline" K_bool
      ~cli:(flag [ "sideline" ]
              "Run trace optimization on a simulated spare processor.")
      (fun o -> o.sideline) (fun o v -> { o with sideline = v });
    knob "opt_level" K_int ~range:(Between (0, 3))
      ~cli:(flag [ "O"; "opt" ] ~docv:"N"
              "Trace optimization level: 0 (off), 1 (copy/constant \
               propagation, strength reduction, flag-save elision), 2 (adds \
               redundant-load removal, dead-store elimination and exit-check \
               peepholes) or 3 (adds profile-guided speculation: guarded \
               dominant-target inlining, constant-load folding and \
               exit-layout biasing, with mid-trace deoptimization).")
      (fun o -> o.opt_level) (fun o v -> { o with opt_level = v });
    knob "opt_enable" K_passes
      ~cli:(flag [ "opt-enable" ] ~docv:"PASS"
              "Enable a single optimizer pass on top of the -O level; \
               repeatable.  Passes: copyprop, strength, loadrem, deadstore, \
               peephole, flagelide.")
      (fun o -> o.opt_enable) (fun o v -> { o with opt_enable = v });
    knob "opt_disable" K_passes
      ~cli:(flag [ "opt-disable" ] ~docv:"PASS"
              "Disable a single optimizer pass from the -O level; repeatable.")
      (fun o -> o.opt_disable) (fun o v -> { o with opt_disable = v });
    knob "reopt_threshold" K_int_opt ~range:Positive
      ~cli:(flag [ "reopt" ] ~docv:"N"
              "Re-optimize a hot trace in place (decode + replace) after N \
               dispatcher entries (overrides the built-in deferral \
               threshold).")
      (fun o -> o.reopt_threshold) (fun o v -> { o with reopt_threshold = v });
    knob "spec_threshold" K_int ~range:(At_least 1)
      ~cli:(flag [ "spec-threshold" ] ~docv:"N"
              "Successor-profile samples required at an exit site before -O3 \
               speculates on it.")
      (fun o -> o.spec_threshold) (fun o v -> { o with spec_threshold = v });
    knob "spec_max_violations" K_int ~range:(At_least 1)
      ~cli:(flag [ "spec-max-violations" ] ~docv:"K"
              "Guard violations tolerated before the trace is re-optimized \
               without that assumption.")
      (fun o -> o.spec_max_violations) (fun o v -> { o with spec_max_violations = v });
    knob "max_cycles" K_int ~range:(At_least 1)
      (fun o -> o.max_cycles) (fun o v -> { o with max_cycles = v });
    knob "faults" (K_record_opt (fault_knobs, default_faults))
      (fun o -> o.faults) (fun o v -> { o with faults = v });
    knob "audit_period" K_int ~range:(At_least 0)
      (fun o -> o.audit_period) (fun o v -> { o with audit_period = v });
    knob "client_fail_limit" K_int
      (fun o -> o.client_fail_limit) (fun o v -> { o with client_fail_limit = v });
    knob "costs" (K_record cost_knobs) (fun o -> o.costs) (fun o v -> { o with costs = v });
  ]

let pool_knobs : pool_opts knob list =
  [
    knob "domains" K_int ~range:(At_least 1)
      ~cli:(flag [ "d"; "domains" ] ~docv:"N" "Worker domains in the pool.")
      (fun p -> p.domains) (fun p v -> { p with domains = v });
    knob "max_inflight" K_int ~range:(At_least 1)
      ~cli:(flag [ "max-inflight" ] ~docv:"N"
              "Bound on submitted-but-incomplete requests (backpressure).")
      (fun p -> p.max_inflight) (fun p v -> { p with max_inflight = v });
    knob "queue_capacity" K_int ~range:(At_least 1)
      (fun p -> p.queue_capacity) (fun p v -> { p with queue_capacity = v });
    knob "affinity" K_bool
      ~cli:(flag [ "affinity" ]
              "Shard by workload-key hash instead of round-robin.")
      (fun p -> p.affinity) (fun p v -> { p with affinity = v });
    knob "retries" K_int ~range:(At_least 0)
      ~cli:(flag [ "retries" ] ~docv:"N"
              "Retry-ladder depth per request: warm retry, cold retry, cold \
               retry on another domain.")
      (fun p -> p.retries) (fun p v -> { p with retries = v });
    knob "quarantine_threshold" K_int ~range:(At_least 1)
      ~cli:(flag [ "quarantine" ] ~docv:"K"
              "Quarantine a workload key after K consecutive final failures; \
               a single probe request may then reopen it.")
      (fun p -> p.quarantine_threshold) (fun p v -> { p with quarantine_threshold = v });
    knob "deadline_cycles" K_int_opt ~range:Positive
      ~cli:(flag [ "deadline-cycles" ] ~docv:"N"
              "Per-request simulated-cycle budget; the watchdog preempts at \
               the next fragment boundary.")
      (fun p -> p.deadline_cycles) (fun p v -> { p with deadline_cycles = v });
    knob "deadline_secs" K_float_opt ~range:Positive
      ~cli:(flag [ "deadline-secs" ] ~docv:"S"
              "Per-request host wall-clock bound (catches stalled workers).")
      (fun p -> p.deadline_secs) (fun p v -> { p with deadline_secs = v });
    knob "accept_queue" K_int ~range:(At_least 1)
      ~cli:(flag [ "accept-queue" ] ~docv:"N"
              "Admission bound for the server: once N requests are admitted \
               but unfinished, further requests are shed with a typed reject \
               instead of queueing without bound.")
      (fun p -> p.accept_queue) (fun p v -> { p with accept_queue = v });
    knob "batch_window" K_int ~range:(At_least 0)
      ~cli:(flag [ "batch-window" ] ~docv:"N"
              "Dequeue-time batching window: a worker looks this deep into \
               its queue for a request matching the key it just served (0 \
               disables).")
      (fun p -> p.batch_window) (fun p v -> { p with batch_window = v });
    knob "prewarm" K_bool
      ~cli:(flag [ "prewarm" ]
              "Build every (domain, workload) instance at pool boot, before \
               accepting traffic, so no request ever cold-boots.")
      (fun p -> p.prewarm) (fun p v -> { p with prewarm = v });
    knob "min_domains" K_int_opt ~range:(At_least 1)
      ~cli:(flag [ "min-domains" ] ~docv:"N"
              "Enable the queue-depth autoscaler: park idle worker domains \
               down to N and wake them as queue depth grows.")
      (fun p -> p.min_domains) (fun p v -> { p with min_domains = v });
    knob "scale_up_depth" K_int
      (fun p -> p.scale_up_depth) (fun p v -> { p with scale_up_depth = v });
    knob "scale_down_depth" K_int ~range:(At_least 0)
      (fun p -> p.scale_down_depth) (fun p v -> { p with scale_down_depth = v });
    knob "scale_hysteresis" K_int ~range:(At_least 1)
      (fun p -> p.scale_hysteresis) (fun p v -> { p with scale_hysteresis = v });
  ]

let find_knob (knobs : 'r knob list) (name : string) : 'r knob =
  List.find (fun (Knob k) -> k.name = name) knobs

(* ------------------------------------------------------------------ *)
(* Codec and range checks, derived from the registry                  *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(** A record as a JSON object, fields in registry order. *)
let rec to_json : type r. r knob list -> r -> Json.t =
 fun knobs r ->
  Json.Obj (List.map (fun (Knob k) -> (k.name, value_to_json k.kind (k.get r))) knobs)

and value_to_json : type a. a kind -> a -> Json.t =
 fun kind v ->
  match kind with
  | K_bool -> Json.Bool v
  | K_int -> Json.Int v
  | K_int_opt -> Option.fold ~none:Json.Null ~some:(fun n -> Json.Int n) v
  | K_float_opt -> Option.fold ~none:Json.Null ~some:(fun f -> Json.Float f) v
  | K_policy -> Json.Str (flush_policy_name v)
  | K_passes -> Json.Arr (List.map (fun p -> Json.Str (pass_name p)) v)
  | K_record ks -> to_json ks v
  | K_record_opt (ks, _) -> Option.fold ~none:Json.Null ~some:(to_json ks) v

(** Decoding failures; paths are dotted and relative to the object. *)
type decode_error = Unknown_field of string | Bad_field of string * string

(** Fold a JSON object's fields onto [base]: absent fields keep their
    base value, unknown ones are refused.  Ranges are not checked
    here (see {!check_ranges}). *)
let rec of_json : type r. r knob list -> r -> (string * Json.t) list -> (r, decode_error) result =
 fun knobs base kvs ->
  List.fold_left
    (fun acc (key, j) ->
      let* r = acc in
      match List.find_opt (fun (Knob k) -> k.name = key) knobs with
      | None -> Error (Unknown_field key)
      | Some (Knob k) ->
          let* v = value_of_json key k.kind (k.get r) j in
          Ok (k.set r v))
    (Ok base) kvs

and value_of_json : type a. string -> a kind -> a -> Json.t -> (a, decode_error) result =
 fun key kind cur j ->
  let bad m = Error (Bad_field (key, m)) in
  let nested ks base kvs =
    match of_json ks base kvs with
    | Error (Unknown_field p) -> Error (Unknown_field (key ^ "." ^ p))
    | Error (Bad_field (p, m)) -> Error (Bad_field (key ^ "." ^ p, m))
    | Ok _ as ok -> ok
  in
  match (kind, j) with
  | K_bool, Json.Bool b -> Ok b
  | K_bool, _ -> bad "expected a boolean"
  | K_int, Json.Int i -> Ok i
  | K_int, _ -> bad "expected an integer"
  | K_int_opt, Json.Null -> Ok None
  | K_int_opt, Json.Int i -> Ok (Some i)
  | K_int_opt, _ -> bad "expected an integer or null"
  | K_float_opt, Json.Null -> Ok None
  | K_float_opt, Json.Float f -> Ok (Some f)
  | K_float_opt, Json.Int i -> Ok (Some (float_of_int i))
  | K_float_opt, _ -> bad "expected a number or null"
  | K_policy, Json.Str s -> (
      match flush_policy_of_name s with
      | Some p -> Ok p
      | None -> bad (Printf.sprintf "unknown policy %S (expected \"fifo\" or \"full\")" s))
  | K_policy, _ -> bad "expected a string"
  | K_passes, Json.Arr xs ->
      let* ps =
        List.fold_left
          (fun acc x ->
            let* ps = acc in
            match x with
            | Json.Str s -> (
                match pass_of_name s with
                | Some p -> Ok (p :: ps)
                | None -> bad (Printf.sprintf "unknown optimizer pass %S" s))
            | _ -> bad "expected an array of pass names")
          (Ok []) xs
      in
      Ok (List.rev ps)
  | K_passes, _ -> bad "expected an array of pass names"
  | K_record _, Json.Null -> Ok cur
  | K_record ks, Json.Obj kvs -> nested ks cur kvs
  | K_record_opt _, Json.Null -> Ok None
  | K_record_opt (ks, d), Json.Obj kvs ->
      let* v = nested ks d kvs in
      Ok (Some v)
  | (K_record _ | K_record_opt _), _ -> bad "expected an object or null"

let range_holds r x =
  match r with
  | At_least n -> x >= float_of_int n
  | Between (lo, hi) -> x >= float_of_int lo && x <= float_of_int hi
  | Positive -> x > 0.0

let range_to_string = function
  | At_least n -> Printf.sprintf "must be >= %d" n
  | Between (lo, hi) -> Printf.sprintf "must be between %d and %d" lo hi
  | Positive -> "must be positive"

(** The first knob, nested ones included, whose value is outside its
    range: its dotted path and what is wrong. *)
let rec check_ranges : type r. r knob list -> r -> (string * string) option =
 fun knobs r ->
  List.find_map (fun (Knob k) -> check_value k.name k.kind k.range (k.get r)) knobs

and check_value : type a. string -> a kind -> range option -> a -> (string * string) option =
 fun name kind range v ->
  let test x shown =
    match range with
    | Some rg when not (range_holds rg x) ->
        Some (name, Printf.sprintf "%s (got %s)" (range_to_string rg) shown)
    | _ -> None
  in
  let nested ks x =
    Option.map (fun (p, m) -> (name ^ "." ^ p, m)) (check_ranges ks x)
  in
  match (kind, v) with
  | K_int, n -> test (float_of_int n) (string_of_int n)
  | K_int_opt, Some n -> test (float_of_int n) (string_of_int n)
  | K_float_opt, Some f -> test f (Printf.sprintf "%g" f)
  | K_record ks, x -> nested ks x
  | K_record_opt (ks, _), Some x -> nested ks x
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Digest (persistent-cache compatibility key)                        *)
(* ------------------------------------------------------------------ *)

(** FNV-1a over the canonical JSON of every engine knob, the printer
    {!Bundle.digest} uses.  Any field that changes code generation
    changes the digest, so a persisted cache image built under
    different options is refused at load rather than producing subtly
    wrong code; equal options always digest equally. *)
let digest (t : t) : int = Isa.Fnv.string (Json.to_string (to_json engine_knobs t))

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

exception Invalid_options of string
(** Raised by {!validate_exn} (and thus {!Rio.create}) on option
    combinations that could only fail later, mid-emission. *)

let ranges_ok knobs r =
  match check_ranges knobs r with
  | Some (path, msg) -> Error (path ^ " " ^ msg)
  | None -> Ok ()

(* No SynISA encoding exceeds 12 bytes (opcode byte + modrm + two
   4-byte immediates/displacements; see lib/isa/encode.ml). *)
let max_insn_bytes = 12

(** Worst-case cache bytes of a single basic-block fragment: the body
    (up to [max_bb_insns] instructions, the final CTI mangled into a
    handful of instructions, plus the sealing jmp) and two exit stubs
    with flags-restore preambles.  Trace fragments can be far larger
    but are droppable — a trace that does not fit is simply not built —
    so only the bb bound is a hard floor. *)
let max_bb_fragment_bytes (t : t) = ((t.max_bb_insns + 8) * max_insn_bytes) + 32

(** Smallest [cache_capacity] the FIFO policy accepts: each region
    (capacity/2 for basic blocks, the rest for traces) must fit the
    largest possible bb fragment even with every other fragment
    evicted. *)
let min_cache_capacity (t : t) = 2 * max_bb_fragment_bytes t

(** The pass set a configuration actually runs: the level's canonical
    passes, plus [opt_enable], minus [opt_disable], in canonical order. *)
let effective_passes (t : t) : opt_pass list =
  let base = passes_at_level t.opt_level in
  List.filter
    (fun p ->
      (List.mem p base || List.mem p t.opt_enable)
      && not (List.mem p t.opt_disable))
    all_passes

(** Every engine knob's range, then the cross-field rules: the FIFO
    capacity floor and the optimizer-level gating. *)
let validate (t : t) : (unit, string) result =
  let* () = ranges_ok engine_knobs t in
  match t.cache_capacity with
  | Some cap when t.flush_policy = Flush_fifo && cap < min_cache_capacity t ->
      Error
        (Printf.sprintf
           "cache capacity %d is below the FIFO floor of %d bytes (twice the \
            worst-case basic-block fragment for max-bb-insns=%d); raise the \
            capacity or use the full flush policy"
           cap (min_cache_capacity t) t.max_bb_insns)
  | _ ->
      if t.opt_level = 0 && t.opt_enable <> [] then
        Error
          (Printf.sprintf
             "pass %s is enabled but the optimizer is off (-O0); raise the \
              level to -O1 or higher or drop the per-pass enable"
             (pass_name (List.hd t.opt_enable)))
      else if t.opt_level = 0 && t.reopt_threshold <> None then
        Error
          "re-optimization is requested but the optimizer is off (-O0); \
           raise the level to -O1 or higher or drop the threshold"
      else Ok ()

let validate_exn (t : t) : unit =
  match validate t with Ok () -> () | Error msg -> raise (Invalid_options msg)

(** Validate pool sizing and supervision parameters: every pool knob's
    range, then the autoscaler's cross-field rules.  {!Pool.create} and
    the [rio_serve] CLI both reject bad values through here so the
    message is identical at every entry point. *)
let validate_pool (p : pool_opts) : (unit, string) result =
  let* () = ranges_ok pool_knobs p in
  if p.scale_up_depth <= p.scale_down_depth then
    Error
      (Printf.sprintf
         "pool scale-up-depth (%d) must exceed scale-down-depth (%d): \
          overlapping thresholds make the autoscaler flap"
         p.scale_up_depth p.scale_down_depth)
  else
    match p.min_domains with
    | Some m when m > p.domains ->
        Error
          (Printf.sprintf
             "pool min-domains must be between 1 and domains=%d (got %d)"
             p.domains m)
    | _ -> Ok ()

let validate_pool_exn (p : pool_opts) : unit =
  match validate_pool p with
  | Ok () -> ()
  | Error msg -> raise (Invalid_options msg)

(** The five configurations of Table 1, in order. *)
let table1_configs =
  [
    ("emulation", { default with emulate = true });
    ( "+ basic block cache",
      { default with link_direct = false; link_indirect = false; enable_traces = false } );
    ( "+ link direct branches",
      { default with link_indirect = false; enable_traces = false } );
    ("+ link indirect branches", { default with enable_traces = false });
    ("+ traces", default);
  ]
