(* The RCSE recordings, pinned byte for byte: for miniht, cloudstore and
   msg_server under each RCSE variant (code-based, data-based,
   trigger-based and combined), the serialised log of each of the app's
   first three failing seeds must hash to the CRC written here. The
   selectors, plane map, invariants and race detectors decide every byte
   of these logs, so any rewrite of them that changes what gets recorded
   fails here, naming app, model and seed.

   The CRCs are [Log_io.crc_hex (Log_io.to_string log)] of
   [Session.record (Session.prepare model app) ~seed], with the default
   config. They are not regenerated: a change that moves one is a change
   to what RCSE records, and needs its own justification.

   The [governed] group pins recordings made under the overhead governor
   the same way: miniht and cloudstore under perfect, sync and rcse with
   an [overhead_budget] of 1.3, on the same failing seeds. The governor's
   admission gate, the [Govern] entries it queues and flushes, and their
   order against [Flight_note] and [Failure_desc] decide every byte of
   these logs. *)

open Ddet
open Ddet_apps
open Ddet_record

(* (app, model, failing seed, CRC32 of the log, its length in bytes) *)
let pins =
  [
    ("miniht", "rcse-code", 1, "26662a42", 12152);
    ("miniht", "rcse-code", 5, "d4b0c78b", 11790);
    ("miniht", "rcse-code", 8, "3af3d41e", 11628);
    ("miniht", "rcse-data", 1, "5736b34d", 10662);
    ("miniht", "rcse-data", 5, "49bdbefc", 12591);
    ("miniht", "rcse-data", 8, "d1003305", 8335);
    ("miniht", "rcse-trigger", 1, "b772fccf", 11370);
    ("miniht", "rcse-trigger", 5, "907fc576", 12895);
    ("miniht", "rcse-trigger", 8, "10dd0993", 158);
    ("miniht", "rcse", 1, "61a33666", 21158);
    ("miniht", "rcse", 5, "7f35df1f", 22224);
    ("miniht", "rcse", 8, "83fde283", 19357);
    ("cloudstore", "rcse-code", 9, "1193cdb9", 2158);
    ("cloudstore", "rcse-code", 14, "06ce7ea5", 2158);
    ("cloudstore", "rcse-code", 16, "a5ed1159", 2362);
    ("cloudstore", "rcse-data", 9, "3f393da3", 21134);
    ("cloudstore", "rcse-data", 14, "5b730457", 24312);
    ("cloudstore", "rcse-data", 16, "8bf18d08", 141);
    ("cloudstore", "rcse-trigger", 9, "56f5a8af", 154);
    ("cloudstore", "rcse-trigger", 14, "ac52124b", 154);
    ("cloudstore", "rcse-trigger", 16, "bd8f099d", 154);
    ("cloudstore", "rcse", 9, "57f6456a", 21378);
    ("cloudstore", "rcse", 14, "5046a3b8", 24463);
    ("cloudstore", "rcse", 16, "6885ea1e", 4847);
    ("msg_server", "rcse-code", 1, "81c77ec7", 6757);
    ("msg_server", "rcse-code", 3, "273ad3d9", 6946);
    ("msg_server", "rcse-code", 4, "6eef112b", 6765);
    ("msg_server", "rcse-data", 1, "4a8ccd3f", 153);
    ("msg_server", "rcse-data", 3, "723f0261", 153);
    ("msg_server", "rcse-data", 4, "4a8ccd3f", 153);
    ("msg_server", "rcse-trigger", 1, "25c0ac4f", 5235);
    ("msg_server", "rcse-trigger", 3, "f4d0bd03", 166);
    ("msg_server", "rcse-trigger", 4, "0ffd2271", 5133);
    ("msg_server", "rcse", 1, "f397c586", 9236);
    ("msg_server", "rcse", 3, "305c2248", 9008);
    ("msg_server", "rcse", 4, "5d58a4d8", 8799);
  ]

let app_of = function
  | "miniht" -> Miniht.app ()
  | "cloudstore" -> Cloudstore.app ()
  | "msg_server" -> Msg_server.app ()
  | name -> invalid_arg ("test_rcse_pin: unknown app " ^ name)

let model_of name =
  match Model.of_string name with Ok m -> m | Error e -> invalid_arg e

(* the same, recorded with [overhead_budget = Some 1.3]: every one of
   these logs carries Govern entries *)
let governed_pins =
  [
    ("miniht", "perfect", 1, "00da56ca", 1933);
    ("miniht", "perfect", 5, "8dfb0305", 1294);
    ("miniht", "perfect", 8, "ac6706f8", 2140);
    ("miniht", "sync", 1, "22f82d9d", 1423);
    ("miniht", "sync", 5, "20a57f0e", 1872);
    ("miniht", "sync", 8, "149bcbec", 1388);
    ("miniht", "rcse", 1, "39b40edb", 19452);
    ("miniht", "rcse", 5, "da21f175", 18993);
    ("miniht", "rcse", 8, "5c9da53f", 19560);
    ("cloudstore", "perfect", 9, "e30aa555", 1561);
    ("cloudstore", "perfect", 14, "8d9e2038", 1556);
    ("cloudstore", "perfect", 16, "c6257c6e", 1564);
    ("cloudstore", "sync", 9, "8dea9c1b", 2130);
    ("cloudstore", "sync", 14, "d94e66e0", 2693);
    ("cloudstore", "sync", 16, "4fa9fb77", 2345);
    ("cloudstore", "rcse", 9, "4f336f62", 2632);
    ("cloudstore", "rcse", 14, "a8d23b23", 2533);
    ("cloudstore", "rcse", 16, "68f01351", 5050);
  ]

let pin ?overhead_budget (app, model, seed, crc, bytes) =
  Alcotest.test_case (Printf.sprintf "%s %s seed %d" app model seed) `Quick
    (fun () ->
      let config = { Config.default with Config.overhead_budget } in
      let prepared = Session.prepare ~config (model_of model) (app_of app) in
      let original, log = Session.record prepared ~seed in
      Alcotest.(check bool) "the seed fails" true
        (original.Mvm.Interp.failure <> None);
      Alcotest.(check bool) "governed" (overhead_budget <> None)
        (Log.governed log);
      let s = Log_io.to_string log in
      Alcotest.(check int) "log bytes" bytes (String.length s);
      Alcotest.(check string) "log CRC" crc (Log_io.crc_hex s))

let () =
  Alcotest.run "rcse-pin"
    [
      ("recordings", List.map (fun p -> pin p) pins);
      ("governed", List.map (pin ~overhead_budget:1.3) governed_pins);
    ]
