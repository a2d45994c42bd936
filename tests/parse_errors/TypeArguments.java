class TypeArguments {
  private java.util.Map<String, 1> counts;
}
