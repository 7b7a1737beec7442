(** FNV-1a, the one hash behind every digest and checksum in the tree:
    program-image digests, option and bundle digests, [.riocache]
    trailers and the cache auditor's fragment checksums.  It lives in
    the lowest library so that [asm] and [rio] share it. *)

let offset_basis = 0x811c9dc5
let prime = 0x01000193
let mask32 = 0xffff_ffff

(** Mix one byte into the state [h], reducing by [mask]: digests keep
    32 bits ({!mask32}); the auditor keeps a wider state. *)
let step ~mask h byte = (h lxor byte) * prime land mask

(** 32-bit FNV-1a over [len] bytes of [s] starting at [pos]. *)
let sub (s : string) ~(pos : int) ~(len : int) : int =
  let h = ref offset_basis in
  for i = pos to pos + len - 1 do
    h := step ~mask:mask32 !h (Char.code s.[i])
  done;
  !h

(** 32-bit FNV-1a over a whole string. *)
let string (s : string) : int = sub s ~pos:0 ~len:(String.length s)
