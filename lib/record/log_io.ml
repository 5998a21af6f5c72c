open Mvm

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
   range. The checksum guards each entry line against the bit rot and
   truncation a log suffers on its way off the production machine.

   Slicing-by-8: [crc_tables] holds 8 tables of 256 entries, table k
   advancing a byte's contribution through k further zero bytes, so one
   step folds 8 input bytes (two little-endian 32-bit reads) with 8
   lookups; the tail is folded byte by byte with table 0. The running
   value fits a native int, so no step allocates. *)

let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let crc32 s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Log_io.crc32";
  let t = crc_tables in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let words_end = pos + len - 8 in
  while !i <= words_end do
    let lo = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t (0x700 lor (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 lor ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 lor ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get t (0x300 lor (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* a CRC as 8 lowercase hex digits, most significant first *)
let put_hex8 b pos crc =
  for k = 0 to 7 do
    Bytes.unsafe_set b (pos + k)
      "0123456789abcdef".[(crc lsr (28 - (4 * k))) land 0xF]
  done

let crc_hex s =
  let b = Bytes.create 8 in
  put_hex8 b 0 (crc32 s 0 (String.length s));
  Bytes.unsafe_to_string b

(* each byte's value as a lowercase hex digit, or -1 *)
let hex_digits =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - 48
      | 'a' .. 'f' -> c - 87
      | _ -> -1)

(* the value of the 8 lowercase hex digits at [pos], or -1; a bad digit
   shows in the sign of the digits or-ed together *)
let read_hex8 s pos =
  if pos < 0 || pos > String.length s - 8 then -1
  else begin
    let v = ref 0 and bad = ref 0 in
    for k = 0 to 7 do
      let d =
        Array.unsafe_get hex_digits (Char.code (String.unsafe_get s (pos + k)))
      in
      bad := !bad lor d;
      v := (!v lsl 4) lor (d land 0xF)
    done;
    if !bad < 0 then -1 else !v
  end

let crc_matches hex s pos len =
  String.length hex = 8 && read_hex8 hex 0 = crc32 s pos len

(* ------------------------------------------------------------------ *)
(* the writer: one growable byte buffer *)

type out = { mutable bytes : Bytes.t; mutable len : int }

let out_create n = { bytes = Bytes.create n; len = 0 }
let out_clear o = o.len <- 0
let out_contents o = Bytes.sub_string o.bytes 0 o.len

let reserve o n =
  let need = o.len + n in
  if need > Bytes.length o.bytes then begin
    let b = Bytes.create (max need (2 * Bytes.length o.bytes)) in
    Bytes.blit o.bytes 0 b 0 o.len;
    o.bytes <- b
  end

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.bytes o.len c;
  o.len <- o.len + 1

let add_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.unsafe_blit_string s 0 o.bytes o.len n;
  o.len <- o.len + n

(* decimal, like [string_of_int]; digits come off the non-positive side,
   where [min_int] still has a magnitude *)
let rec digits k w = if k > -10 then w else digits (k / 10) (w + 1)

let rec fill_digits b k p =
  Bytes.unsafe_set b p (Char.unsafe_chr (48 - (k mod 10)));
  if k <= -10 then fill_digits b (k / 10) (p - 1)

let add_int o n =
  let m = if n < 0 then n else -n in
  let w = digits m 1 + if n < 0 then 1 else 0 in
  reserve o w;
  if n < 0 then Bytes.unsafe_set o.bytes o.len '-';
  fill_digits o.bytes m (o.len + w - 1);
  o.len <- o.len + w

(* a double-quoted [String.escaped], which allocates only when the
   string needs escaping *)
let add_quoted o s =
  add_char o '"';
  add_string o (String.escaped s);
  add_char o '"'

(* The one framing writer: [framed o f x] appends [<crc8> <body>\n], the
   body written by [f o x] straight after a reserved checksum slot that
   is then patched in place. *)
let framed o f x =
  let start = o.len in
  reserve o 9;
  o.len <- start + 9;
  f o x;
  let body = start + 9 in
  put_hex8 o.bytes start
    (crc32 (Bytes.unsafe_to_string o.bytes) body (o.len - body));
  Bytes.unsafe_set o.bytes (start + 8) ' ';
  add_char o '\n'

(* ------------------------------------------------------------------ *)
(* encoding *)

let add_value o = function
  | Value.Vint n -> add_string o "i:"; add_int o n
  | Value.Vbool b -> add_string o (if b then "b:true" else "b:false")
  | Value.Vstr s -> add_string o "s:"; add_quoted o s
  | Value.Vunit -> add_char o 'u'

let add_failure o = function
  | Failure.Crash { sid; msg } ->
    add_string o "crash ";
    add_int o sid;
    add_char o ' ';
    add_quoted o msg
  | Failure.Spec_violation tag -> add_string o "spec "; add_quoted o tag
  | Failure.Hang -> add_string o "hang"

(* "<keyword> <tid> <sid>", the prefix most entries share *)
let add_site o kw tid sid =
  add_string o kw;
  add_int o tid;
  add_char o ' ';
  add_int o sid

let add_entry o = function
  | Log.Sched { tid; sid } -> add_site o "sched " tid sid
  | Log.Input { tid; chan; value } ->
    add_string o "input ";
    add_int o tid;
    add_char o ' ';
    add_string o chan;
    add_char o ' ';
    add_value o value
  | Log.Read_val { tid; sid; kind; value } ->
    add_site o "readval " tid sid;
    add_string o (match kind with Log.Mem -> " mem " | Log.Msg -> " msg ");
    add_value o value
  | Log.Output { chan; value } ->
    add_string o "output ";
    add_string o chan;
    add_char o ' ';
    add_value o value
  | Log.Sync { tid; sid; op } -> (
    add_site o "sync " tid sid;
    match op with
    | Log.Op_send c -> add_string o " send "; add_string o c
    | Log.Op_recv c -> add_string o " recv "; add_string o c
    | Log.Op_spawn -> add_string o " spawn -"
    | Log.Op_lock m -> add_string o " lock "; add_string o m
    | Log.Op_unlock m -> add_string o " unlock "; add_string o m)
  | Log.Cp_sched { tid; sid } -> add_site o "cpsched " tid sid
  | Log.Cp_input { tid; sid; chan; value } ->
    add_site o "cpinput " tid sid;
    add_char o ' ';
    add_string o chan;
    add_char o ' ';
    add_value o value
  | Log.Failure_desc f -> add_string o "faildesc "; add_failure o f
  | Log.Flight_note { buffered } -> add_string o "flight "; add_int o buffered
  | Log.Mark m -> add_string o "mark "; add_quoted o m
  | Log.Govern { step; level; reason } ->
    add_string o "govern ";
    add_int o step;
    add_char o ' ';
    add_int o level;
    add_char o ' ';
    add_quoted o reason

(* The header lines, plain or each framed (the causal manifest CRCs its
   header too). *)
let add_header ~framed:fr o (log : Log.t) =
  let line f x =
    if fr then framed o f x
    else begin
      f o x;
      add_char o '\n'
    end
  in
  line (fun o r -> add_string o "recorder "; add_quoted o r) log.Log.recorder;
  line (fun o n -> add_string o "base-steps "; add_int o n) log.Log.base_steps;
  line
    (fun o -> function
      | Some f -> add_string o "failure "; add_failure o f
      | None -> add_string o "failure none")
    log.Log.failure;
  match log.Log.faults with
  | Some plan ->
    line
      (fun o p -> add_string o "faults "; add_quoted o (Fault.to_string p))
      plan
  | None -> ()

let log_magic = "ddet-log v2"

let to_string (log : Log.t) =
  let o = out_create 4096 in
  add_string o log_magic;
  add_char o '\n';
  add_header ~framed:false o log;
  let n =
    List.fold_left
      (fun n e ->
        framed o add_entry e;
        n + 1)
      0 log.Log.entries
  in
  add_string o "end ";
  add_int o n;
  add_char o '\n';
  out_contents o

(* ------------------------------------------------------------------ *)
(* lines and frames *)

(* [f n ls le] for every '\n'-separated line s[ls, le), numbered from 1;
   a final empty line follows a trailing '\n', as [String.split_on_char]
   would give it *)
let rec line_end s i =
  if i = String.length s || String.unsafe_get s i = '\n' then i
  else line_end s (i + 1)

let iter_lines s f =
  let rec from n ls =
    let le = line_end s ls in
    f n ls le;
    if le < String.length s then from (n + 1) (le + 1)
  in
  from 1 0

(* blank as [String.trim] sees it *)
let rec is_blank s ls le =
  ls = le
  ||
  match String.unsafe_get s ls with
  | ' ' | '\012' | '\n' | '\r' | '\t' -> is_blank s (ls + 1) le
  | _ -> false

(* The one framing check: the CRC stored at the start of the line from
   [ls] when it is framed, else -1. A framed line starts with 8
   lowercase hex digits and a space, so it is at least 9 bytes long and
   its body starts at [ls + 9]; header keywords and trailers never start
   so, and the classification is unambiguous. *)
let framed_crc s ls =
  if ls + 9 <= String.length s && String.unsafe_get s (ls + 8) = ' ' then
    read_hex8 s ls
  else -1

(* ------------------------------------------------------------------ *)
(* decoding *)

exception Parse of string

(* A reader decodes a line in place, left to right, straight from the
   bytes, with no token list: a line ends at the next '\n' or at the end
   of the string, and its fields are separated by spaces. A double quote
   opens an OCaml-escaped span that runs to the matching close quote and
   does not end the field; a field's text is its bytes minus each span's
   closing quote, so both bare strings ([mark "a b"]) and typed values
   ([s:"a b"]) are single fields. The field last read is s[a, b), and
   [quote] is -1 for a field without quotes, the index of the opening
   quote when the field holds one span that closes on its last byte, and
   -2 otherwise.

   A line's error is deferred to its end, so the one reported follows
   the format's precedence whatever the order fields are read in: an
   unterminated quote anywhere on the line, then a wrong field count,
   then the rightmost bad field (the order the format's error reports
   were defined by: OCaml evaluates a record's fields right to left). *)
type reader = {
  s : string;
  mutable pos : int;  (* the next byte to read *)
  mutable a : int;
  mutable b : int;
  mutable quote : int;
  mutable fields : int;  (* fields read on this line *)
  mutable unterminated : bool;
  mutable error : string;  (* the rightmost bad field's error, or [no_error] *)
  scratch : Buffer.t;
}

(* compared physically: a line without a bad field costs no string
   comparison and no write barrier *)
let no_error = ""

let reader s =
  { s; pos = 0; a = 0; b = 0; quote = -1; fields = 0; unterminated = false;
    error = no_error; scratch = Buffer.create 64 }

let[@inline] start_line r pos =
  r.pos <- pos;
  r.fields <- 0;
  r.unterminated <- false;
  if r.error != no_error then r.error <- no_error

let[@inline] is_end s i = i = String.length s || String.unsafe_get s i = '\n'

(* the index of the quote that closes a span whose body starts at [j],
   or -1 if the line ends first *)
let rec close_quote s j =
  if is_end s j then -1
  else
    match String.unsafe_get s j with
    | '"' -> j
    | '\\' when not (is_end s (j + 1)) -> close_quote s (j + 2)
    | _ -> close_quote s (j + 1)

(* the field that started at [a]; [i] is the next byte to read. An
   unterminated span makes the rest of the line the field. *)
let rec field r a i quote spans last_close =
  let s = r.s in
  if is_end s i || String.unsafe_get s i = ' ' then begin
    r.a <- a;
    r.b <- i;
    r.pos <- i;
    r.quote <-
      (if spans = 0 then -1
       else if spans = 1 && last_close = i - 1 then quote
       else -2)
  end
  else if String.unsafe_get s i = '"' then
    let j = close_quote s (i + 1) in
    if j < 0 then begin
      let e = line_end s i in
      r.unterminated <- true;
      r.a <- a;
      r.b <- e;
      r.pos <- e;
      r.quote <- -2
    end
    else field r a (j + 1) (if spans = 0 then i else quote) (spans + 1) j
  else field r a (i + 1) quote spans last_close

let rec spaces_from s i =
  if i < String.length s && String.unsafe_get s i = ' ' then
    spaces_from s (i + 1)
  else i

(* fields are one space apart: that case costs no call *)
let[@inline] skip_spaces s i =
  if i < String.length s && String.unsafe_get s i = ' ' then
    if i + 1 < String.length s && String.unsafe_get s (i + 1) = ' ' then
      spaces_from s (i + 2)
    else i + 1
  else i

(* reads the next field; false at the end of the line *)
let next r =
  let i = skip_spaces r.s r.pos in
  r.pos <- i;
  if is_end r.s i then false
  else begin
    r.fields <- r.fields + 1;
    field r i i (-1) 0 (-1);
    true
  end

(* reads the rest of the line, then raises its tokenizing error *)
let finish_line r =
  if not (is_end r.s r.pos) then
    while next r do
      ()
    done;
  if r.unterminated then raise (Parse "unterminated string")

(* raises the rightmost bad field's error *)
let field_errors r = if r.error != no_error then raise (Parse r.error)

(* s[a, a + |kw|) = kw *)
let rec range_is s a kw i =
  i = String.length kw
  || String.unsafe_get s (a + i) = String.unsafe_get kw i
     && range_is s a kw (i + 1)

let[@inline] field_is r kw =
  r.b - r.a = String.length kw && range_is r.s r.a kw 0

(* the field's text: its bytes minus each span's closing quote *)
let field_text r =
  let s = r.s and a = r.a and b = r.b in
  if r.quote = -1 then String.sub s a (b - a)
  else begin
    let buf = r.scratch in
    Buffer.clear buf;
    let rec go i =
      if i < b then
        if String.unsafe_get s i = '"' then begin
          let j = close_quote s (i + 1) in
          let j = if j < 0 || j > b then b else j in
          Buffer.add_substring buf s i (j - i);
          go (j + 1)
        end
        else begin
          Buffer.add_char buf (String.unsafe_get s i);
          go (i + 1)
        end
    in
    go a;
    Buffer.contents buf
  end

(* [int_of_string] of s[a, b): plain decimal is read in place, and any
   other spelling the stdlib accepts (0x1f, 1_000, +5, 19 digits) goes
   to [int_of_string_opt], so the two agree on every input *)
let int_slow s a b =
  match int_of_string_opt (String.sub s a (b - a)) with
  | Some n -> n
  | None -> raise (Parse "int_of_string")

(* the sign is applied on the fast path only: [int_slow] reads the whole
   field, sign included *)
let rec int_digits s a b neg i acc =
  if i = b then if neg then -acc else acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
      int_digits s a b neg (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> int_slow s a b

let int_in s a b =
  let neg = b > a && String.unsafe_get s a = '-' in
  let d0 = if neg then a + 1 else a in
  if b - d0 < 1 || b - d0 > 18 then int_slow s a b
  else int_digits s a b neg d0 0

(* The next field as an int, its digits read as the field is found; 0
   with the error deferred when it is not one, or when the line has no
   more fields (the field count catches that). A byte other than a digit
   or a delimiter sends the field to [field] and [int_in]. *)
let rec int_digits_field r a d0 i acc =
  let s = r.s in
  let c = if i < String.length s then String.unsafe_get s i else '\n' in
  if c >= '0' && c <= '9' then
    int_digits_field r a d0 (i + 1) ((acc * 10) + Char.code c - 48)
  else if (c = ' ' || c = '\n') && i > d0 && i - d0 <= 18 then begin
    r.pos <- i;
    if d0 > a then -acc else acc
  end
  else begin
    field r a i (-1) 0 (-1);
    match int_in s a r.b with
    | n -> n
    | exception Parse msg ->
      r.error <- msg;
      0
  end

let int_field r =
  let s = r.s in
  let a = skip_spaces s r.pos in
  if is_end s a then begin
    r.pos <- a;
    0
  end
  else begin
    r.fields <- r.fields + 1;
    let d0 = if String.unsafe_get s a = '-' then a + 1 else a in
    int_digits_field r a d0 d0 0
  end

let text_field r = if next r then field_text r else ""

(* [Scanf.unescaped] of src[p, q), its errors raised as [Parse]: a span
   with no quote or backslash is its own text *)
let rec unescaped_range src i q =
  i = q
  || match String.unsafe_get src i with
     | '"' | '\\' -> false
     | _ -> unescaped_range src (i + 1) q

let unescape src p q =
  let text = String.sub src p (q - p) in
  if unescaped_range src p q then text
  else
    try Scanf.unescaped text with Scanf.Scan_failure msg -> raise (Parse msg)

(* the field's text from raw offset [p] (no quote before it) as a quoted
   string *)
let quoted_from r p =
  if r.quote = p then unescape r.s (p + 1) (r.b - 1)
  else
    let tok = field_text r in
    let off = p - r.a in
    let rest = String.sub tok off (String.length tok - off) in
    if String.length rest > 0 && rest.[0] = '"' then
      unescape rest 1 (String.length rest)
    else raise (Parse ("expected quoted string, got " ^ rest))

let quoted_field r =
  if not (next r) then ""
  else
    match quoted_from r r.a with
    | q -> q
    | exception Parse msg ->
      r.error <- msg;
      ""

let bad_value r = raise (Parse ("bad value token " ^ field_text r))

let field_value r =
  let s = r.s and a = r.a and b = r.b in
  if b - a = 1 && String.unsafe_get s a = 'u' then Value.unit
  else if b - a > 2 && String.unsafe_get s (a + 1) = ':' then
    match String.unsafe_get s a with
    | 'i' -> Value.int (int_in s (a + 2) b)
    | 'b' ->
      if b - a = 6 && range_is s (a + 2) "true" 0 then Value.bool true
      else if b - a = 7 && range_is s (a + 2) "false" 0 then Value.bool false
      else bad_value r
    | 's' -> Value.str (quoted_from r (a + 2))
    | _ -> bad_value r
  else bad_value r

let value_field r =
  if not (next r) then Value.unit
  else
    match field_value r with
    | v -> v
    | exception Parse msg ->
      r.error <- msg;
      Value.unit

let kind_field r =
  if not (next r) then Log.Mem
  else if field_is r "mem" then Log.Mem
  else if field_is r "msg" then Log.Msg
  else begin
    r.error <- "bad read kind " ^ field_text r;
    Log.Mem
  end

(* the operation and its object, two fields *)
let op_fields r =
  if not (next r) then Log.Op_spawn
  else if field_is r "spawn" then begin
    ignore (next r);
    Log.Op_spawn
  end
  else
    let op =
      if field_is r "send" then fun c -> Log.Op_send c
      else if field_is r "recv" then fun c -> Log.Op_recv c
      else if field_is r "lock" then fun c -> Log.Op_lock c
      else if field_is r "unlock" then fun c -> Log.Op_unlock c
      else begin
        r.error <- "bad sync op " ^ field_text r;
        fun _ -> Log.Op_spawn
      end
    in
    op (text_field r)

(* The failure in every field after the keyword, which must hold exactly
   one failure's fields; a line that does not is named by the texts of
   all of them. *)
let failure_fields r =
  let start = r.pos and before = r.fields in
  let shape =
    if not (next r) then None
    else if field_is r "crash" then
      let sid = int_field r in
      let msg = quoted_field r in
      Some (3, Failure.Crash { sid; msg })
    else if field_is r "spec" then Some (2, Failure.Spec_violation (quoted_field r))
    else if field_is r "hang" then Some (1, Failure.Hang)
    else None
  in
  finish_line r;
  match shape with
  | Some (n, f) when r.fields - before = n ->
    field_errors r;
    f
  | _ ->
    r.pos <- start;
    let rec texts acc = if next r then texts (field_text r :: acc) else acc in
    raise (Parse ("bad failure: " ^ String.concat " " (List.rev (texts []))))

(* The entry on the line whose body starts at [ls]: the keyword, then
   the fields its entry kind has, whatever their count; the deferred
   error is raised once the whole line is read, else [e] is the entry. *)
let bad_entry r ls =
  finish_line r;
  raise (Parse ("bad entry: " ^ String.sub r.s ls (r.pos - ls)))

let entry r ls n e =
  finish_line r;
  if r.fields <> n then bad_entry r ls;
  field_errors r;
  e

let dec_entry r ls =
  start_line r ls;
  if not (next r) then bad_entry r ls
  else if field_is r "sched" then
    let tid = int_field r in
    let sid = int_field r in
    entry r ls 3 (Log.Sched { tid; sid })
  else if field_is r "readval" then
    let tid = int_field r in
    let sid = int_field r in
    let kind = kind_field r in
    let value = value_field r in
    entry r ls 5 (Log.Read_val { tid; sid; kind; value })
  else if field_is r "cpsched" then
    let tid = int_field r in
    let sid = int_field r in
    entry r ls 3 (Log.Cp_sched { tid; sid })
  else if field_is r "sync" then
    let tid = int_field r in
    let sid = int_field r in
    let op = op_fields r in
    entry r ls 5 (Log.Sync { tid; sid; op })
  else if field_is r "input" then
    let tid = int_field r in
    let chan = text_field r in
    let value = value_field r in
    entry r ls 4 (Log.Input { tid; chan; value })
  else if field_is r "output" then
    let chan = text_field r in
    let value = value_field r in
    entry r ls 3 (Log.Output { chan; value })
  else if field_is r "cpinput" then
    let tid = int_field r in
    let sid = int_field r in
    let chan = text_field r in
    let value = value_field r in
    entry r ls 5 (Log.Cp_input { tid; sid; chan; value })
  else if field_is r "faildesc" then Log.Failure_desc (failure_fields r)
  else if field_is r "flight" then
    let buffered = int_field r in
    entry r ls 2 (Log.Flight_note { buffered })
  else if field_is r "mark" then
    let m = quoted_field r in
    entry r ls 2 (Log.Mark m)
  else if field_is r "govern" then
    let step = int_field r in
    let level = int_field r in
    let reason = quoted_field r in
    entry r ls 4 (Log.Govern { step; level; reason })
  else bad_entry r ls

(* [h] updated by the header line whose keyword the reader has just
   read, or [None] when the line is no header line: a header keyword
   with the wrong field count is none *)
let header_fields r (h : Log.t) =
  let header n update =
    finish_line r;
    if r.fields <> n then None
    else begin
      field_errors r;
      Some (update ())
    end
  in
  if field_is r "recorder" then
    let recorder = quoted_field r in
    header 2 (fun () -> { h with recorder })
  else if field_is r "base-steps" then
    let base_steps = int_field r in
    header 2 (fun () -> { h with base_steps })
  else if field_is r "failure" then begin
    let start = r.pos in
    if next r && field_is r "none" && (finish_line r; r.fields = 2) then
      Some { h with failure = None }
    else begin
      r.pos <- start;
      r.fields <- 1;
      Some { h with failure = Some (failure_fields r) }
    end
  end
  else if field_is r "faults" then
    let plan = quoted_field r in
    header 2 (fun () ->
        match Fault.of_string plan with
        | Ok p -> { h with faults = Some p }
        | Error e -> raise (Parse ("bad fault plan: " ^ e)))
  else header (-1) (fun () -> h)

(* ------------------------------------------------------------------ *)
(* modes, damage reports *)

type mode = Strict | Salvage

type damage = {
  total_lines : int;
  salvaged_entries : int;
  corrupt_lines : (int * string * string) list;
  truncated : bool;
}

let is_damaged d = d.corrupt_lines <> [] || d.truncated

let pp_damage ppf d =
  if not (is_damaged d) then Format.fprintf ppf "log intact"
  else begin
    Format.fprintf ppf "@[<v>salvaged %d entries from %d lines%s"
      d.salvaged_entries d.total_lines
      (if d.truncated then " (truncated tail)" else "");
    List.iter
      (fun (n, reason, text) ->
        Format.fprintf ppf "@,  line %d: %s (in: %S)" n reason text)
      d.corrupt_lines;
    Format.fprintf ppf "@]"
  end

(* Every parse failure is reported with its 1-based line number and the
   offending text, whether it becomes a hard Error (Strict) or a damage
   record (Salvage). *)
let line_error n reason text =
  "line " ^ string_of_int n ^ ": " ^ reason ^ " (in: \"" ^ String.escaped text
  ^ "\")"

(* the header before any header line is read *)
let no_header =
  Log.make ~recorder:"unknown" ~entries:[] ~base_steps:0 ~failure:None ()

(* ------------------------------------------------------------------ *)
(* the entry stream: a magic line, header lines, [<crc8> <entry>] lines,
   then [end N]. Monolithic logs and shards, segments and the segment
   header file differ only in their magic. *)

(* One pass over the string in both modes, each line read once: a
   framed line is decoded as its end is found, then its body's CRC is
   checked, and a bad CRC outranks whatever the decode found. Strict
   turns the first problem into an Error and reads no further; Salvage
   records it and keeps the valid prefix, reading on unless
   [until_damage]. The first non-blank line is the magic; a body line is
   framed, a header line or the [end N] trailer. *)
let read_stream ~magic ?(until_damage = false) ?(mode = Strict) s =
  let r = reader s in
  let hdr = ref no_header in
  let entries = ref [] and count = ref 0 and corrupt = ref [] in
  let trailer = ref None and strict_error = ref None in
  let total_lines = ref 0 and magic_seen = ref false and stopped = ref false in
  let problem n reason ls le =
    let text = String.sub s ls (le - ls) in
    match mode with
    | Strict ->
      strict_error := Some (line_error n reason text);
      stopped := true
    | Salvage ->
      corrupt := (n, reason, text) :: !corrupt;
      if until_damage then stopped := true
  in
  (* even the magic can be the corrupted line; Salvage assumes the
     stream goes on and keeps whatever survives *)
  let magic_line n ls le =
    magic_seen := true;
    let m = String.trim (String.sub s ls (le - ls)) in
    if not (String.equal m magic) then
      problem n (if mode = Strict then "bad magic: " ^ m else "bad magic") ls le
  in
  (* the framed line from [ls], its CRC [stored]; returns where it ends *)
  let crc_problem n ls le =
    problem n
      ("crc mismatch (stored " ^ String.sub s ls 8 ^ ", computed "
      ^ crc_hex (String.sub s (ls + 9) (le - ls - 9))
      ^ ")")
      ls le
  in
  let framed_line n ls stored =
    match dec_entry r (ls + 9) with
    | e ->
      let le = r.pos in
      if crc32 s (ls + 9) (le - ls - 9) <> stored then crc_problem n ls le
      else begin
        entries := e :: !entries;
        incr count
      end;
      le
    | exception Parse msg ->
      let le = line_end s r.pos in
      if crc32 s (ls + 9) (le - ls - 9) <> stored then crc_problem n ls le
      else problem n msg ls le;
      le
  in
  let unframed_line n ls le =
    start_line r ls;
    ignore (next r);
    match
      if field_is r "end" then begin
        let c = int_field r in
        finish_line r;
        if r.fields <> 2 then None
        else if r.error != no_error then raise (Parse "bad trailer count")
        else begin
          trailer := Some c;
          Some !hdr
        end
      end
      else header_fields r !hdr
    with
    | Some h -> hdr := h
    | None -> problem n "unrecognised line" ls le
    | exception Parse msg -> problem n msg ls le
  in
  let ls = ref 0 and n = ref 1 and more = ref true in
  while !more do
    let stored =
      if !magic_seen && not !stopped then framed_crc s !ls else -1
    in
    let le =
      if stored >= 0 then begin
        incr total_lines;
        framed_line !n !ls stored
      end
      else
        let le = line_end s !ls in
        if not (is_blank s !ls le) then begin
          incr total_lines;
          if not !magic_seen then magic_line !n !ls le
          else if not !stopped then unframed_line !n !ls le
        end;
        le
    in
    if le < String.length s then begin
      ls := le + 1;
      incr n
    end
    else more := false
  done;
  if !total_lines = 0 then Error "empty log"
  else
    match !strict_error with
    | Some e -> Error e
    | None ->
      let truncated =
        match !trailer with None -> true | Some c -> c <> !count
      in
      if mode = Strict && truncated then
        Error
          (match !trailer with
          | None -> "missing `end` trailer (truncated log)"
          | Some c ->
            "trailer count " ^ string_of_int c ^ " does not match "
            ^ string_of_int !count ^ " entries")
      else
        Ok
          ( { !hdr with entries = List.rev !entries },
            {
              total_lines = !total_lines;
              salvaged_entries = !count;
              corrupt_lines = List.rev !corrupt;
              truncated;
            } )

let of_string_report ?mode s = read_stream ~magic:log_magic ?mode s
let of_string ?mode s = Result.map fst (of_string_report ?mode s)

(* ------------------------------------------------------------------ *)
(* the framed-line file: a magic line, then [<crc8> <body>] lines *)

let read_framed ~magic mode s line =
  let corrupt = ref 0 and error = ref None and magic_seen = ref false in
  let problem n reason ls le =
    incr corrupt;
    if mode = Strict then
      error := Some (line_error n reason (String.sub s ls (le - ls)))
  in
  iter_lines s (fun n ls le ->
      if !error = None && not (is_blank s ls le) then
        if not !magic_seen then begin
          magic_seen := true;
          let text = String.sub s ls (le - ls) in
          let m = String.trim text in
          if not (String.equal m magic) then
            error := Some (line_error n ("bad magic: " ^ m) text)
        end
        else
          let stored = framed_crc s ls in
          if stored < 0 then problem n "unframed line" ls le
          else if stored <> crc32 s (ls + 9) (le - ls - 9) then
            problem n "crc mismatch" ls le
          else
            match line (String.sub s (ls + 9) (le - ls - 9)) with
            | true -> ()
            | false -> problem n "unrecognised line" ls le
            | exception Parse msg -> problem n msg ls le);
  match !error with
  | Some e -> Error e
  | None -> if !magic_seen then Ok !corrupt else Error "empty file"

(* ------------------------------------------------------------------ *)
(* the manifest: a framed-line file naming the parts of one recording *)

type part = { index : int; name : string; entries : int; crc : string }

type manifest = {
  header : Log.t;
  parts : part list;
  order : (int * int) list;
  edges : (string * int * int * int * int) list;
  complete : bool;
}

let manifest_to_string ~magic ~part (header : Log.t) parts ~order ~edges =
  let o = out_create 1024 in
  add_string o magic;
  add_char o '\n';
  add_header ~framed:true o header;
  let line fmt = Printf.ksprintf (framed o add_string) fmt in
  List.iteri
    (fun ix (name, entries, crc) ->
      line "%s %d %s %d %s" part ix name entries crc)
    parts;
  (* 16 runs to a line *)
  let rec orders = function
    | [] -> ()
    | runs ->
      line "order %s"
        (String.concat ","
           (List.filteri (fun i _ -> i < 16) runs
           |> List.map (fun (ix, n) -> Printf.sprintf "%d:%d" ix n)));
      orders (List.filteri (fun i _ -> i >= 16) runs)
  in
  orders order;
  List.iter
    (fun (chan, six, sseq, rix, rseq) ->
      line "edge %S %d %d %d %d" chan six sseq rix rseq)
    edges;
  line "end %d %d %d" (List.length parts)
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 parts)
    (List.length edges);
  out_contents o

(* "ix:n,ix:n,..." *)
let runs_of tok =
  List.map
    (fun run ->
      match String.index_opt run ':' with
      | Some k -> (int_in run 0 k, int_in run (k + 1) (String.length run))
      | None -> raise (Parse ("bad order run " ^ run)))
    (String.split_on_char ',' tok)

(* Every line is CRC'd on its own, so a damaged manifest still yields
   its valid lines; [complete] holds only when none was bad and the
   [end] counts agree with what was read. *)
let manifest_of_string ~magic ~part s =
  let hdr = ref no_header and parts = ref [] and order = ref [] in
  let edges = ref [] and trailer = ref None in
  let push r x =
    r := x :: !r;
    true
  and push_all r xs =
    r := List.rev_append xs !r;
    true
  and push_one r x =
    r := Some x;
    true
  in
  let line body =
    let r = reader body in
    start_line r 0;
    if not (next r) then false
    else if field_is r part then begin
      let index = int_field r in
      let name = text_field r in
      let entries = int_field r in
      let crc = text_field r in
      finish_line r;
      r.fields = 5 && (field_errors r; push parts { index; name; entries; crc })
    end
    else if field_is r "order" then begin
      let runs = text_field r in
      finish_line r;
      r.fields = 2 && push_all order (runs_of runs)
    end
    else if field_is r "edge" then begin
      let chan = quoted_field r in
      let six = int_field r in
      let sseq = int_field r in
      let rix = int_field r in
      let rseq = int_field r in
      finish_line r;
      r.fields = 6 && (field_errors r; push edges (chan, six, sseq, rix, rseq))
    end
    else if field_is r "end" then begin
      let n_parts = int_field r in
      let n_entries = int_field r in
      let n_edges = int_field r in
      finish_line r;
      r.fields = 4
      && (field_errors r; push_one trailer (n_parts, n_entries, n_edges))
    end
    else
      match header_fields r !hdr with
      | Some h ->
        hdr := h;
        true
      | None -> false
  in
  match read_framed ~magic Salvage s line with
  | Error _ -> None
  | Ok corrupt ->
    let parts = List.sort compare !parts and order = List.rev !order in
    let edges = List.rev !edges in
    let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
    let complete =
      corrupt = 0
      &&
      match !trailer with
      | Some (n_parts, n_entries, n_edges) ->
        n_parts = List.length parts
        && n_edges = List.length edges
        && n_entries = sum (fun p -> p.entries) parts
        && (order = [] || n_entries = sum snd order)
      | None -> false
    in
    Some { header = !hdr; parts; order; edges; complete }

(* ------------------------------------------------------------------ *)
(* files *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error e -> Error e

(* Store-routed save: the payload goes to a temp file that is fsynced
   and renamed over the target, and every byte flows through the
   pluggable store, so fault injection and retry policies apply. *)
let save_via store path log = Store.atomic_write store path (to_string log)

let save path log =
  match save_via (Store.local ()) path log with
  | Ok () -> ()
  | Error e -> raise (Sys_error (Store.error_to_string e))

let load_report ?mode path =
  Result.bind (read_file path) (of_string_report ?mode)

let load ?mode path = Result.map fst (load_report ?mode path)
