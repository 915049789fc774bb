"""Client/server protocol simulation: wire format, transports, sessions."""

from .sim import (CSV_HEADER, SESSION_FIELDS, ServerHandle, SessionError,
                  SessionRecord, TrialStats, deployment, provision,
                  records_to_csv, retrieve, run_trials, serve_connection,
                  session_rows)
from .transport import (ChannelConnection, SocketConnection, TcpListener,
                        memory_pair, tcp_connect)
from .wire import (ERR_BAD_QUERY, ERR_MALFORMED, ERR_UNKNOWN_TYPE,
                   MAX_FRAME_BYTES, MSG_ANSWER, MSG_ERROR, MSG_HELLO,
                   MSG_QUERY, PROTOCOL_VERSION, WireError, WireFrame,
                   decode_answer, decode_error, decode_hello, decode_query,
                   encode_answer, encode_error, encode_frame, encode_hello,
                   encode_query, parse_frame, read_frame)

__all__ = [name for name in dir() if not name.startswith("_")]
