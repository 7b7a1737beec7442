(** Assembled program images and loading them into a machine.

    The standard layout places text at 4KB, data at 2MB, the initial
    stack just under 8MB, and leaves everything above 8MB to the
    runtime (code caches, spill slots, trap region). *)

type t = {
  name : string;
  entry : int;
  text_base : int;
  text : Bytes.t;
  data_base : int;
  data : Bytes.t;
  labels : (string * int) list;
}

let default_text_base = 0x1000
let default_data_base = 0x20_0000
let default_stack_top = 0x7F_F000

(** End of the application's address space; the runtime may use
    anything at or above this. *)
let app_space_end = 0x80_0000

let label t name =
  match List.assoc_opt name t.labels with
  | Some a -> a
  | None -> raise (Ast.Unknown_label name)

(** FNV-1a (32-bit) over the image's code-relevant content: entry,
    section bases, and the raw text and data bytes.  A persistent code
    cache records this at save time and refuses to warm-boot over a
    different program — fragments carry source-range checksums of the
    bytes they were built from, so loading them against other text
    would execute stale translations. *)
let digest (t : t) : int =
  let h = ref Isa.Fnv.offset_basis in
  let mix_byte b = h := Isa.Fnv.step ~mask:Isa.Fnv.mask32 !h b in
  let mix_int v =
    mix_byte (v land 0xff);
    mix_byte ((v lsr 8) land 0xff);
    mix_byte ((v lsr 16) land 0xff);
    mix_byte ((v lsr 24) land 0xff)
  in
  mix_int t.entry;
  mix_int t.text_base;
  mix_int t.data_base;
  Bytes.iter (fun c -> mix_byte (Char.code c)) t.text;
  Bytes.iter (fun c -> mix_byte (Char.code c)) t.data;
  !h

(** [load machine image] copies text and data into machine memory and
    creates a thread at the entry point. *)
let load ?(stack_top = default_stack_top) (m : Vm.Machine.t) (t : t) :
    Vm.Machine.thread =
  Vm.Memory.blit_bytes (Vm.Machine.mem m) ~src:t.text ~src_pos:0 ~dst:t.text_base
    ~len:(Bytes.length t.text);
  Vm.Memory.blit_bytes (Vm.Machine.mem m) ~src:t.data ~src_pos:0 ~dst:t.data_base
    ~len:(Bytes.length t.data);
  Vm.Machine.add_thread m ~entry:t.entry ~stack_top

(** [load_cold machine image] copies text and data into machine memory
    without marking the written pages touched or dirty — the loader is
    not the application writing to itself.  For long-lived (pooled)
    machines, so the first between-request reset does not mistake the
    image for request-written state and wipe it.  No thread is
    created; the caller adds one per request. *)
let load_cold (m : Vm.Machine.t) (t : t) : unit =
  Vm.Memory.blit_bytes_raw (Vm.Machine.mem m) ~src:t.text ~src_pos:0
    ~dst:t.text_base ~len:(Bytes.length t.text);
  Vm.Memory.blit_bytes_raw (Vm.Machine.mem m) ~src:t.data ~src_pos:0
    ~dst:t.data_base ~len:(Bytes.length t.data)

(** [restore machine image ~zeroed] re-blits the image slices that
    intersect the just-zeroed ranges (from {!Vm.Memory.zero_touched}),
    returning the byte ranges rewritten.  Pages the previous request
    never wrote still hold correct image bytes and cost nothing. *)
let restore (m : Vm.Machine.t) (t : t) ~(zeroed : (int * int) list) :
    (int * int) list =
  let mem = Vm.Machine.mem m in
  let sections =
    [ (t.text_base, t.text); (t.data_base, t.data) ]
  in
  List.concat_map
    (fun (lo, hi) ->
      List.filter_map
        (fun (base, bytes) ->
          let slo = max lo base and shi = min hi (base + Bytes.length bytes) in
          if slo >= shi then None
          else begin
            Vm.Memory.blit_bytes_raw mem ~src:bytes ~src_pos:(slo - base)
              ~dst:slo ~len:(shi - slo);
            Some (slo, shi)
          end)
        sections)
    zeroed

(** [spawn machine image "worker"] adds another thread entering at the
    given label, with its own stack below the previous thread's. *)
let spawn ?(stack_size = 0x1_0000) (m : Vm.Machine.t) (t : t) entry_label :
    Vm.Machine.thread =
  let n = List.length (Vm.Machine.live_threads m) in
  let stack_top = default_stack_top - (n * stack_size) in
  Vm.Machine.add_thread m ~entry:(label t entry_label) ~stack_top
