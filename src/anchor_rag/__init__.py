"""Answer-first multi-hop question answering over a chunked document corpus.

The pipeline asks a model for a fast direct answer, has it explain that
hypothesis as knowledge-graph triples, uses the triples as dense-retrieval
queries, and then asks the model to re-answer with the retrieved evidence
in view. Includes exact cosine retrieval, a confidence gate for skipping
the deliberate pass, EM/F1 scoring, and run/report tooling.
"""

__version__ = "0.1.0"
